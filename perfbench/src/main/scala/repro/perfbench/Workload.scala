package repro.perfbench

import scala.collection.mutable

/** What one pass of a workload produced: stage times, query latencies,
  * the quality guard, output-check counts and, in traced passes, the
  * per-layer values.
  */
final class PassCtx(val id: Int, val tracer: Tracer) {
  val stageNanos: mutable.Map[String, Long] = mutable.LinkedHashMap.empty
  /** Every timed stage call, in order: (stage, nanoseconds). */
  val stageCalls: mutable.ArrayBuffer[(String, Long)] = mutable.ArrayBuffer.empty
  val latenciesMs: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty
  var rowsRead: Stats.Ratio = Stats.Ratio(0, 0) // rows read / rows matched
  val layer: mutable.Map[String, Double] = mutable.LinkedHashMap.empty
  var attempted = 0L
  var failed = 0L
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def traced: Boolean = tracer.on

  /** Pass 0 is the untimed warm-up after set-up. */
  def warmup: Boolean = id == 0

  /** Time `f` into stage `stage` (`learn` or `layout`), inside a span. */
  def stage[A](stage: String, span: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val r = tracer.span(span)(f)
    val dt = System.nanoTime() - t0
    stageNanos(stage) = stageNanos.getOrElse(stage, 0L) + dt
    stageCalls += stage -> dt
    r
  }

  /** Time one query-like operation, recording its latency. */
  def query[A](span: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val r = tracer.span(span)(f)
    latenciesMs += (System.nanoTime() - t0) / 1e6
    r
  }

  /** Count `n` operations whose outputs were produced, none failed yet. */
  def ops(n: Long): Unit = attempted += n

  /** An output check; a failed check counts one failed operation. */
  def check(ok: Boolean, what: => String): Unit =
    if (!ok) { failed += 1; if (failures.length < 20) failures += what }

  private val sums = mutable.Map.empty[String, (Double, Double)]

  def put(name: String, value: Double): Unit = layer(name) = value
  def add(name: String, value: Double): Unit = layer(name) = layer.getOrElse(name, 0.0) + value

  /** Report `total / count`, pooled with earlier calls under `name`. */
  def mean(name: String, total: Double, count: Double): Unit = {
    val (t, c) = sums.getOrElse(name, (0.0, 0.0))
    sums(name) = (t + total, c + count)
    layer(name) = (t + total) / (c + count)
  }
}

/** A benchmark workload: inputs made from a seed, set up once or more,
  * then run pass after pass in a closed loop with one client.
  */
trait Workload {
  def name: String

  /** Build every input from the seed. Run several times to time set-up;
    * each call replaces the previous inputs. Returns extra per-layer
    * values to report (such as data materialisation time).
    */
  def setup(): Map[String, Double]

  /** One pass of the job; its wall time is the pass time. */
  def pass(ctx: PassCtx): Unit

  /** Check the last pass's outputs, off the clock, counting the
    * operations attempted and those whose output was wrong.
    */
  def verify(ctx: PassCtx): Unit

  /** Traced passes only: measurements taken after the pass's clock has
    * stopped (per-call costs, counts from a second look at the data).
    */
  def probe(ctx: PassCtx): Unit = ()

  def close(): Unit = ()
}

object Workload {
  val Names: Seq[String] = Seq("design-osm", "parquet-osm-100k")

  def apply(name: String, seed: Long, scratch: java.io.File): Workload = name match {
    case "design-osm"       => new DesignWorkload(seed)
    case "parquet-osm-100k" => new ParquetWorkload(seed, scratch)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other'; expected one of ${Names.mkString(", ")}")
  }
}
