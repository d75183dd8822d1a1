package repro.perfbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.max
import repro.core._
import repro.learn.{LBMC, LBMCConfig, LBMCResult, Quilts}
import repro.spark.{BlockAccess, CurveUdfs, Layout, SpatialData}
import scala.collection.mutable.ArrayBuffer

/** parquet-osm-100k: the Spark Parquet layout job over 10⁵ OSM-like
  * points at d=2, ℓ=16 (the path is 2-D only), as `LayoutJob` runs it.
  *
  * Set-up materialises and caches `SpatialData.dataset`. Each pass picks
  * the curve with `Layout.chooseCurve` over LayoutJob's candidates (the
  * deterministic curves, the QUILTS designs and an LBMC curve learned on
  * 200 8192×1024 rectangles), writes the table clustered by it to 32
  * Parquet files, runs 40 filtered counts over held-out 8192×1024
  * rectangles, and computes `BlockAccess.average` for the chosen curve.
  *
  * The reads replay one fixed log of rectangles, drawn at [[ReadLogSeed]]
  * whatever `--seed` is, as `LayoutJob` judges its layouts on a fixed
  * query set; the learning rectangles, and with them the chosen curve,
  * follow `--seed`. Rows read per match is a ratio of sums, set by the
  * few densest rectangles: with 50 rectangles drawn afresh per seed it
  * moved by 0.22 (quartile distance over median) across ten seeds, which
  * measured the draw of the rectangles rather than the layout.
  *
  * Spark's own numbers are not assumed to repeat: `repartitionByRange`
  * samples its range bounds with a seed derived from the RDD id, so in one
  * JVM the written layout, and with it the rows each read scans, can shift
  * between passes. The spread of rows scanned per match is reported.
  */
final class ParquetWorkload(seed: Long, scratch: File) extends Workload {
  override val name = "parquet-osm-100k"
  private val D = 2
  private val Bits = 16
  private val NPoints = 100000
  private val NLearn = 200
  private val NReads = 40
  private val ReadLogSeed = 2L
  private val Wx = 8192L
  private val Wy = 1024L
  private val Files = 32
  private val BlockSize = 128

  private val dir = new File(scratch, name)
  private val path = new File(dir, "layout").getAbsolutePath
  private var spark: SparkSession = _
  private var df: DataFrame = _
  private var points: Array[Array[Long]] = _
  private var learnQs: Array[Rect] = _
  private var readQs: Array[Rect] = _
  private var expected: Array[Long] = _
  private val zc = BMC.zOrder(D, Bits)

  // Outputs of the last pass.
  private var wc: WorkloadCost = _
  private var lbmc: LBMCResult = _
  private var designed: Seq[BMC] = _
  private var candidates: Seq[BMC] = _
  private var chosen: (BMC, BigInt) = _
  private var counts: Array[Long] = _
  private var scans: Array[SparkSide.Scan] = _
  private var blockAvg: Double = _
  private var meter: SparkSide.JobMeter = _
  private val scannedPerMatch = ArrayBuffer.empty[Double]
  private val indexAvg = scala.collection.mutable.Map.empty[BMC, Double]

  override def setup(): Map[String, Double] = {
    val first = spark == null
    val t0 = System.nanoTime()
    if (first) {
      dir.mkdirs()
      spark = SparkSide.session(dir)
    }
    val t1 = System.nanoTime()
    if (df != null) df.unpersist(blocking = true)
    df = SpatialData.dataset(spark, "OSM", NPoints, Inputs.MapSeed, Bits).cache()
    df.count()
    val t2 = System.nanoTime()
    points = Inputs.osmPoints(NPoints, Bits)
    val rng = new java.util.Random(seed)
    learnQs = Inputs.rectsOnData(points, NLearn, Wx, Wy, Bits, rng)
    readQs = Inputs.rectsOnData(points, NReads, Wx, Wy, Bits, new java.util.Random(ReadLogSeed))
    expected = readQs.map(Calls.countInside(points, _))
    Map("SpatialData.dataset_s" -> (t2 - t1) / 1e9) ++
      (if (first) Map("Spark.session_s" -> (t1 - t0) / 1e9) else Map.empty)
  }

  override def pass(ctx: PassCtx): Unit = {
    val tr = ctx.tracer
    def learn[A](span: String)(f: => A): A = ctx.stage("learn", span)(f)
    wc = learn("WorkloadCost.init")(WorkloadCost(learnQs.toSeq, D, Bits))
    lbmc = learn("LBMC.learn")(new LBMC(wc, LBMCConfig(seed = seed)).learn(zc))
    designed = learn("Quilts.candidates")(Quilts.candidates(learnQs.toSeq, D, Bits))
    candidates = (Seq(zc, BMC.lexicographic(D, Bits, 0), BMC.lexicographic(D, Bits, 1), lbmc.best) ++
      designed).distinct
    chosen = learn("Layout.chooseCurve")(Layout.chooseCurve(wc, candidates))
    meter = if (ctx.traced) new SparkSide.JobMeter(spark, "perfbench-write") else null
    ctx.stage("layout", "Parquet.layout") {
      val write = () => tr.span("Layout.write")(Layout.write(df, chosen._1, path, Files))
      if (meter == null) write() else meter(write())
    }
    val reads = readQs.map { q =>
      ctx.query("Read.count") {
        val agg = SparkSide.inRect(spark.read.parquet(path), q).groupBy().count()
        (agg.collect()(0).getLong(0), agg)
      }
    }
    counts = reads.map(_._1)
    scans = reads.map(r => SparkSide.scanMetrics(r._2.queryExecution))
    blockAvg = tr.span("BlockAccess.average")(BlockAccess.average(spark, df, chosen._1, BlockSize, readQs))
  }

  override def verify(ctx: PassCtx): Unit = {
    // The chooser, the write, the reads, the block-access job.
    ctx.ops(3L + counts.length)
    ctx.check(chosen._2 == wc.cost(chosen._1) && chosen._2 <= wc.cost(zc) && chosen._2 <= wc.cost(lbmc.best),
      s"$name: chooser returned ${chosen._1} at ${chosen._2}, not the cheapest")
    val rows = counts.sum
    ctx.check(counts.sameElements(expected),
      s"$name: filtered counts ${counts.mkString(",")} differ from driver counts ${expected.mkString(",")}")
    val oracle = indexAvg.getOrElseUpdate(chosen._1,
      ClusteredIndex.build(points, chosen._1, BlockSize).avgBlockAccesses(readQs.toSeq))
    ctx.check(blockAvg == oracle, s"$name: BlockAccess.average $blockAvg != ClusteredIndex $oracle")
    val files = new File(path).listFiles().count(_.getName.endsWith(".parquet"))
    ctx.check(files >= 1 && files <= Files, s"$name: layout wrote $files files")
    ctx.rowsRead = Stats.Ratio(scans.map(_.rows).sum.toDouble, rows)
    if (!ctx.warmup) scannedPerMatch += ctx.rowsRead.value
  }

  override def probe(ctx: PassCtx): Unit = {
    meter.finish()
    ctx.put("Layout.shuffle_bytes", meter.shuffleBytes)
    ctx.put("Layout.run_s", meter.runMs / 1e3)
    ctx.put("Layout.files_written", meter.filesWritten)
    ctx.put("Layout.bytes_written", meter.bytesWritten)
    ctx.put("Read.files", scans.map(_.files).sum.toDouble / scans.length)
    ctx.put("Read.bytes", scans.map(_.bytes).sum.toDouble / scans.length)
    ctx.put("Read.rows_scanned", scans.map(_.rows).sum.toDouble / scans.length)
    ctx.put("Read.rows_scanned_per_match", ctx.rowsRead.value)
    ctx.put("Read.rows_scanned_per_match.spread",
      (scannedPerMatch.max - scannedPerMatch.min) / Stats.median(scannedPerMatch.toSeq))
    ctx.put("Layout.files_touched_est", Layout.avgFilesTouched(spark, path, readQs))
    val t0 = System.nanoTime()
    CurveUdfs.withCurveValue(df, chosen._1).agg(max("sfc")).collect()
    ctx.put("CurveUdfs.project_s", (System.nanoTime() - t0) / 1e9)
    ctx.put("BMC.value_ns", Calls.nsPerCall(points.toIndexedSeq, points.length)(chosen._1.value))
    ctx.put("BlockAccess.s", Calls.spanMs(ctx, "BlockAccess.average") / 1e3)
    ctx.put("BlockAccess.hits", blockAvg * readQs.length)
    Calls.reportLBMC(ctx, lbmc)
    ctx.put("Quilts.ms", Calls.spanMs(ctx, "Quilts.candidates"))
    ctx.put("Quilts.candidates", designed.length)
    ctx.put("LBMC.cost_ratio", (BigDecimal(lbmc.bestCost) / BigDecimal(wc.cost(zc))).toDouble)
    Probes.costEvals(ctx, wc, candidates.toIndexedSeq)
    Calls.reportChooser(ctx, candidates.length)
    Probes.mlp(ctx, wc)
  }

  override def close(): Unit = {
    if (spark != null) spark.stop()
    def rm(f: File): Unit = {
      Option(f.listFiles()).foreach(_.foreach(rm))
      f.delete()
    }
    rm(dir)
  }
}
