package repro.jobs

import repro.exp.QueryExp

/** spark-submit entrypoint reproducing Table 7 (SFC learning time vs N).
  *
  * Usage: spark-submit --class repro.jobs.Table7Job repro.jar
  */
object Table7Job {
  def main(args: Array[String]): Unit = println(QueryExp.learningTime().table)
}
