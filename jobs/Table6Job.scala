package repro.jobs

import repro.exp.CostEfficiencyExp

/** spark-submit entrypoint reproducing Table 6 (initialization costs of GC
  * and LC, varying n). Pure-driver computation: the cost estimators are
  * data independent (Section 6.2 of the paper).
  *
  * Usage: spark-submit --class repro.jobs.Table6Job repro.jar [maxExp]
  */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val fig = args.headOption.fold(CostEfficiencyExp.table6())(e => CostEfficiencyExp.table6(e.toInt))
    println(fig.table)
  }
}
