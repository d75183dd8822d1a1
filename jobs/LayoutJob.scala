package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exp.TableFmt
import repro.learn.{LBMC, Quilts}
import repro.spark.{BlockAccess, Layout, SpatialData}

/** End-to-end Spark job realizing the repro hint: the O(1) cost estimator
  * chooses the space-filling curve used to cluster a table before writing
  * Parquet, and the job reports the file-skipping and block-access win
  * over an unsuitable layout.
  *
  * Usage: spark-submit --class repro.jobs.LayoutJob repro.jar \
  *          [dist] [n] [outDir]
  */
object LayoutJob {
  def main(args: Array[String]): Unit = {
    val dist = args.headOption.getOrElse("OSM")
    val n = args.lift(1).map(_.toInt).getOrElse(200_000)
    val out = args.lift(2).getOrElse(
      java.nio.file.Files.createTempDirectory("sfc-layout").toString)
    val bits = 16
    val numFiles = 32

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("sfc-layout").getOrCreate()
    try {
      val df = SpatialData.dataset(spark, dist, n, seed = 1, bits)
      val queries = Workloads.rectangles(dist, 200, 8192, 1024, bits, seed = 2)

      // Candidates: deterministic schemes + QUILTS designs + the LBMC-learned curve.
      val wc = WorkloadCost(queries.toSeq, 2, bits)
      val lbmc = new LBMC(wc).learn(BMC.zOrder(2, bits)).best
      val candidates = (Seq(BMC.zOrder(2, bits), BMC.lexicographic(2, bits, 0),
        BMC.lexicographic(2, bits, 1), lbmc) ++
        Quilts.candidates(queries.toSeq, 2, bits)).distinct
      val (best, bestCost) = Layout.chooseCurve(wc, candidates)
      val worst = candidates.maxBy(wc.cost)
      println(s"chosen curve: $best (cost $bestCost); adversarial: $worst")

      val bestPath = s"$out/best"
      val worstPath = s"$out/worst"
      val (_, tWrite) = TableFmt.timed(Layout.write(df, best, bestPath, numFiles))
      Layout.write(df, worst, worstPath, numFiles)
      println(f"layout written to $bestPath in ${tWrite / 1e9}%.1f s")

      val rows = Seq(
        Seq("chosen", f"${Layout.avgFilesTouched(spark, bestPath, queries)}%.2f",
          f"${BlockAccess.average(spark, df, best, 128, queries)}%.1f"),
        Seq("adversarial", f"${Layout.avgFilesTouched(spark, worstPath, queries)}%.2f",
          f"${BlockAccess.average(spark, df, worst, 128, queries)}%.1f"))
      println(TableFmt.render(s"Parquet layout quality ($dist, N=$n, $numFiles files)",
        Seq("layout", "avg files touched", "avg block accesses"), rows))
    } finally spark.stop()
  }
}
