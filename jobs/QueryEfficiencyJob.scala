package repro.jobs

import repro.exp.QueryExp

/** spark-submit entrypoint reproducing Figures 14–17 (block accesses of
  * LBMC / BMTree / QUILTS / ZC / HC / LC).
  *
  * Usage: spark-submit --class repro.jobs.QueryEfficiencyJob repro.jar
  */
object QueryEfficiencyJob {
  def main(args: Array[String]): Unit = {
    println(QueryExp.overall().table)
    println(QueryExp.varyCardinality().table)
    println(QueryExp.varyAspectRatio().table)
    println(QueryExp.varyEdge().table)
  }
}
