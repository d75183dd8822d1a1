package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import scala.collection.mutable.ArrayBuffer

/** Entry point: `Main --workload W --seed N --seconds S --trace 0|1`.
  *
  * Sets the workload up three times (set-up time is their median), runs
  * one untimed warm-up pass, then runs passes back to back (one client,
  * closed loop) until the passes have taken `S` seconds and, untraced,
  * at least [[MinPasses]] have run. With `--trace 0` it reports the end-to-end
  * metrics; with `--trace 1` it alternates untraced and traced passes and
  * reports the per-layer metrics, each layer's self time and the tracing
  * overhead. The last stdout line is the result as one JSON object.
  *
  * Every measured pass makes the same calls on the same inputs in the
  * same order, so the k-th call of a stage (one index build, say) or the
  * k-th query is one unit of work repeated once per pass. Each unit's
  * time is its fastest repetition. Layout time is the sum of its units,
  * and query latency is the median over the queries. Pass time is the
  * fastest pass. What differs between repetitions is interference: on a
  * shared host work runs in a fast or a slow state (1.3–1.6× apart, a
  * state lasting from a second to minutes), which only ever adds time. A
  * mean or a median over repetitions moves with the share of slow ones,
  * which differs from run to run; the fastest repetition moves only when
  * every repetition is slow.
  */
object Main {

  /** End-to-end metrics: (name, unit). */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "pass_s" -> "s", "layout_s" -> "s",
    "query_ms_p50" -> "ms", "rows_read_per_match" -> "ratio")

  /** Layers that spans are named after; each gets a `self_ms.<layer>`. */
  val Layers: Seq[String] = Seq(
    "WorkloadCost", "GlobalCost", "LocalCost", "LBMC", "BMTree", "Quilts", "Layout",
    "BMC", "Hilbert", "PiecewiseBMC", "ClusteredIndex", "SpatialData", "CurveUdfs",
    "Read", "BlockAccess")

  /** Per-layer metrics: (name, unit). A layer a workload leaves idle
    * reports 0.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "GlobalCost.init_us" -> "us", "GlobalCost.inits" -> "count",
    "LocalCost.init_us" -> "us", "LocalCost.inits" -> "count",
    "GlobalCost.eval_ns" -> "ns", "LocalCost.eval_ns" -> "ns",
    "WorkloadCost.eval_ns" -> "ns", "WorkloadCost.evalD_ns" -> "ns", "WorkloadCost.evals" -> "count",
    "Layout.choose_ms" -> "ms", "Layout.choose_eval_share" -> "ratio",
    "BMTree.reward_ms.gc" -> "ms", "BMTree.split_ms.gc" -> "ms", "BMTree.nodes.gc" -> "count",
    "BMTree.reward_ms.lc" -> "ms", "BMTree.split_ms.lc" -> "ms", "BMTree.nodes.lc" -> "count",
    "BMTree.reward_ms.sp" -> "ms", "BMTree.split_ms.sp" -> "ms", "BMTree.nodes.sp" -> "count",
    "LBMC.learn_ms" -> "ms", "LBMC.reward_ms" -> "ms", "LBMC.dqn_ms" -> "ms",
    "LBMC.dqn_share" -> "ratio", "LBMC.steps" -> "count",
    "LBMC.cost_ratio" -> "ratio", "MLP.forward_us" -> "us", "MLP.train_batch_us" -> "us",
    "Quilts.ms" -> "ms", "Quilts.candidates" -> "count",
    "BMC.value_ns" -> "ns", "Hilbert.value_ns" -> "ns", "PiecewiseBMC.value_ns" -> "ns",
    "ClusteredIndex.sort_ms" -> "ms", "ClusteredIndex.query_us" -> "us",
    "ClusteredIndex.points_in_query" -> "count", "ClusteredIndex.block_fill" -> "ratio",
    "LocalCost.sections_per_query" -> "count",
    "Spark.session_s" -> "s", "SpatialData.dataset_s" -> "s", "CurveUdfs.project_s" -> "s",
    "Layout.shuffle_bytes" -> "bytes", "Layout.bytes_written" -> "bytes",
    "Layout.files_written" -> "count", "Layout.run_s" -> "s", "Layout.files_touched_est" -> "count",
    "Read.files" -> "count", "Read.bytes" -> "bytes", "Read.rows_scanned" -> "count",
    "Read.rows_scanned_per_match" -> "ratio", "Read.rows_scanned_per_match.spread" -> "ratio",
    "BlockAccess.s" -> "s", "BlockAccess.hits" -> "count",
    "Trace.pass_s" -> "s", "Trace.overhead_pct" -> "%", "Trace.spans" -> "count",
  ) ++ Layers.map(l => s"self_ms.$l" -> "ms")

  /** Set-ups timed per run. */
  val SetupReps = 3

  /** Measured passes a run makes at the least, however long they take.
    * The first measured pass still runs slower than later ones on the
    * Parquet workload (Spark's code is still being compiled), so three
    * give each unit at least two comparable repetitions.
    */
  val MinPasses = 3

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1")
    require(a.seconds >= 1, "--seconds must be at least 1")
    require(Set("0", "1")(need("trace")), "--trace must be 0 or 1")
    a
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val work = new File(".bench_build/work")
    work.mkdirs()
    val wl = Workload(args.workload, args.seed, work)
    val result = try run(wl, args) finally wl.close()
    println(result)
  }

  private def secs(nanos: Long): Double = nanos / 1e9

  def run(wl: Workload, args: Args): String = {
    val setupTimes = ArrayBuffer.empty[Double]
    val setupLayer = ArrayBuffer.empty[Map[String, Double]]
    for (_ <- 1 to SetupReps) {
      val t0 = System.nanoTime()
      setupLayer += wl.setup()
      setupTimes += secs(System.nanoTime() - t0)
    }

    val tracer = new Tracer
    val all = ArrayBuffer.empty[PassCtx]
    val warm = new PassCtx(0, tracer)
    wl.pass(warm)
    wl.verify(warm)
    all += warm

    val plain = ArrayBuffer.empty[(PassCtx, Double)]
    val traced = ArrayBuffer.empty[(PassCtx, Double)]
    var id = 1
    // The run measures `seconds` of passes; checks and probes run off
    // that clock. Traced runs go in blocks of four, untraced-traced-
    // traced-untraced, so drift along the run cancels out of the overhead;
    // they report medians, so need no more passes than one block.
    def enough = (plain ++ traced).map(_._2).sum >= args.seconds &&
      (if (args.trace) (id - 1) % 4 == 0 else plain.length >= MinPasses)
    while (!enough) {
      val traceThis = args.trace && Set(2, 3)((id - 1) % 4 + 1)
      val ctx = new PassCtx(id, tracer)
      if (traceThis) tracer.start(id)
      val t0 = System.nanoTime()
      wl.pass(ctx)
      val passS = secs(System.nanoTime() - t0)
      tracer.stop()
      Console.err.println(f"pass $id: $passS%.3f s;" +
        ctx.stageNanos.map { case (s, ns) => f" $s ${secs(ns)}%.3f s;" }.mkString +
        f" query p50 ${Stats.median(ctx.latenciesMs.toSeq)}%.3f ms" + (if (traceThis) " (traced)" else ""))
      wl.verify(ctx)
      if (traceThis) {
        wl.probe(ctx)
        traced += ctx -> passS
      } else plain += ctx -> passS
      all += ctx
      id += 1
    }

    val attempted = all.map(_.attempted).sum
    val failed = all.map(_.failed).sum
    all.flatMap(_.failures).foreach(f => Console.err.println(s"check failed: $f"))

    val metrics: Seq[(String, String, Double)] =
      if (!args.trace) endToEnd(setupTimes.toSeq, plain.toSeq)
      else perLayer(setupLayer.toSeq, plain.toSeq, traced.toSeq, tracer)

    if (args.trace) {
      val f = new File(s".bench_build/traces/${wl.name}-seed${args.seed}.json")
      f.getParentFile.mkdirs()
      Files.write(f.toPath, Trace.toJson(tracer.all).getBytes(StandardCharsets.UTF_8))
      println(s"spans written to ${f.getPath}")
    }
    println(f"${wl.name}: ${all.length - 1} measured passes after warm-up, $attempted ops checked, $failed failed")
    metrics.foreach { case (n, u, v) => println(f"  $n%-36s $v%14.6f $u") }

    val body = metrics.map { case (n, u, v) => n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) }
    Json.obj(Seq(
      "correct" -> (failed == 0 && attempted > 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(body)))
  }

  def endToEnd(setup: Seq[Double], passes: Seq[(PassCtx, Double)]): Seq[(String, String, Double)] = {
    val lat = passes.flatMap(_._1.latenciesMs)
    val tail = Stats.tailLevel(lat.length).fold("too few for p90 to have 10 samples beyond it") { p =>
      f"highest percentile with >=10 samples beyond: p${p * 100}%.1f = ${Stats.percentile(lat, p)}%.4f ms"
    }
    println(f"query latencies pooled over ${passes.length} passes: ${lat.length} samples; " +
      f"p50 = ${Stats.median(lat)}%.4f ms; $tail")
    val layout = Stats.perUnit(passes.map(_._1.stageCalls.collect { case ("layout", ns) => secs(ns) }.toSeq)).sum
    val rowsRead = passes.map(_._1.rowsRead).reduce(_ + _)
    val values = Map(
      "setup_s" -> Stats.median(setup),
      "pass_s" -> passes.map(_._2).min,
      "layout_s" -> layout,
      "query_ms_p50" -> Stats.median(Stats.perUnit(passes.map(_._1.latenciesMs.toSeq))),
      "rows_read_per_match" -> rowsRead.value)
    EndToEnd.map { case (n, u) => (n, u, values(n)) }
  }

  def perLayer(setup: Seq[Map[String, Double]], plain: Seq[(PassCtx, Double)],
               traced: Seq[(PassCtx, Double)], tracer: Tracer): Seq[(String, String, Double)] = {
    val known = PerLayer.map(_._1).toSet
    val fromSetup = setup.flatMap(_.keySet).distinct.map(k => k -> Stats.median(setup.flatMap(_.get(k))))
    val fromPasses = traced.flatMap(_._1.layer.keySet).distinct.map { k =>
      k -> Stats.median(traced.flatMap(_._1.layer.get(k)))
    }
    val selfByPass = traced.map(t => Trace.selfNanosByLayer(tracer.ofPass(t._1.id)))
    val selfTimes = Layers.map { l =>
      s"self_ms.$l" -> Stats.median(selfByPass.map(_.getOrElse(l, 0L) / 1e6))
    }
    val plainS = Stats.median(plain.map(_._2))
    val tracedS = Stats.median(traced.map(_._2))
    val trace = Seq(
      "Trace.pass_s" -> tracedS,
      "Trace.overhead_pct" -> (tracedS - plainS) / plainS * 100,
      "Trace.spans" -> Stats.median(traced.map(t => tracer.ofPass(t._1.id).length.toDouble)))
    val values = (fromSetup ++ fromPasses ++ selfTimes ++ trace).toMap
    val unknown = values.keySet -- known
    require(unknown.isEmpty, s"undeclared per-layer metrics: ${unknown.mkString(", ")}")
    val idle = PerLayer.map(_._1).filterNot(values.contains)
    if (idle.nonEmpty) println(s"idle in this workload (reported as 0): ${idle.mkString(", ")}")
    PerLayer.map { case (n, u) => (n, u, values.getOrElse(n, 0.0)) }
  }
}
