package repro.jobs

import repro.exp.CostEfficiencyExp._

/** spark-submit entrypoint reproducing Figures 9 and 10 (cost-estimation
  * efficiency sweeps over n, δ, ℓ, d).
  *
  * Usage: spark-submit --class repro.jobs.CostEfficiencyJob repro.jar
  */
object CostEfficiencyJob {
  def main(args: Array[String]): Unit = {
    println(fig9a().table); println(fig9b().table); println(fig9c().table); println(fig9d().table)
    println(fig10a().table); println(fig10b().table); println(fig10c().table); println(fig10d().table)
  }
}
