package repro.jobs

import repro.exp.BMTreeExp

/** spark-submit entrypoint reproducing Figures 11–13 (BMTree reward
  * replacement: SP vs GC vs LC).
  *
  * Usage: spark-submit --class repro.jobs.BMTreeJob repro.jar
  */
object BMTreeJob {
  def main(args: Array[String]): Unit = {
    println(BMTreeExp.varyCardinality().table)
    println(BMTreeExp.varyQueries().table)
    println(BMTreeExp.varySamplingAndDepth().table)
  }
}
