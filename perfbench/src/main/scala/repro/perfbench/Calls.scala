package repro.perfbench

import repro.core._
import repro.learn.BMTree

/** The benchmark's wrappers around calls into the program's layers. In a
  * traced pass they open spans named after the layer; untraced, they make
  * the plain call.
  */
object Calls {

  /** Span layer of a curve's `value`. */
  def valueLayer(curve: SpaceFillingCurve): String = curve match {
    case _: BMC          => "BMC"
    case _: Hilbert      => "Hilbert"
    case _: PiecewiseBMC => "PiecewiseBMC"
    case other           => other.getClass.getSimpleName
  }

  /** `ClusteredIndex.build`. Traced, the same work is split at the public
    * seam `build` uses — curve values, then `buildWithValues` — so value
    * time and sort time are seen apart.
    */
  def buildIndex(ctx: PassCtx, points: Array[Array[Long]], curve: SpaceFillingCurve,
                 blockSize: Int): ClusteredIndex =
    if (!ctx.traced) ClusteredIndex.build(points, curve, blockSize)
    else ctx.tracer.span("ClusteredIndex.build") {
      val layer = valueLayer(curve)
      val t0 = System.nanoTime()
      val values = ctx.tracer.span(s"$layer.value")(points.map(curve.value))
      val t1 = System.nanoTime()
      val idx = ctx.tracer.span("ClusteredIndex.sort")(
        ClusteredIndex.buildWithValues(points, values, blockSize))
      val t2 = System.nanoTime()
      ctx.mean(s"$layer.value_ns", (t1 - t0).toDouble, points.length)
      ctx.add("ClusteredIndex.sort_ms", (t2 - t1) / 1e6)
      idx
    }

  /** A BMTree reward whose node initialisations and candidate evaluations
    * are spans `<layer>.init` and `<layer>.eval`.
    */
  final class TracedReward(inner: BMTree.Reward, ctx: PassCtx, layer: String) extends BMTree.Reward {
    override def name: String = inner.name
    override def forNode(node: BMTree.NodeCtx): BMC => Double = {
      val eval = ctx.tracer.span(s"$layer.init")(inner.forNode(node))
      sigma => ctx.tracer.span(s"$layer.eval")(eval(sigma))
    }
  }

  /** `reward`, traced when the pass is. SP is never wrapped: the learner
    * samples data only when handed `SPReward` itself.
    */
  def reward(ctx: PassCtx, inner: BMTree.Reward): BMTree.Reward = inner match {
    case BMTree.GCReward if ctx.traced => new TracedReward(inner, ctx, "GlobalCost")
    case BMTree.LCReward if ctx.traced => new TracedReward(inner, ctx, "LocalCost")
    case _                             => inner
  }

  /** Report a BMTree result as `BMTree.{reward_ms,split_ms,nodes}.<tag>`. */
  def reportBMTree(ctx: PassCtx, tag: String, r: BMTree.Result): Unit = {
    ctx.put(s"BMTree.reward_ms.$tag", r.rewardNanos / 1e6)
    ctx.put(s"BMTree.split_ms.$tag", (r.totalNanos - r.rewardNanos) / 1e6)
    ctx.put(s"BMTree.nodes.$tag", r.nodes)
  }

  /** Total milliseconds of the pass's spans named `name`. */
  def spanMs(ctx: PassCtx, name: String): Double =
    ctx.tracer.ofPass(ctx.id).filter(_.name == name).map(_.durationNs).sum / 1e6

  /** LBMC's time split: reward (cost model) against the DQN around it. */
  def reportLBMC(ctx: PassCtx, r: repro.learn.LBMCResult): Unit = {
    val learn = spanMs(ctx, "LBMC.learn")
    val dqn = (r.totalNanos - r.rewardNanos) / 1e6
    ctx.put("LBMC.learn_ms", learn)
    ctx.put("LBMC.reward_ms", r.rewardNanos / 1e6)
    ctx.put("LBMC.dqn_ms", dqn)
    ctx.put("LBMC.dqn_share", Stats.Ratio(dqn, learn).value)
    ctx.put("LBMC.steps", r.costTrace.length)
  }

  /** The chooser's time and the share of it the cost evaluations explain
    * (per-call cost × calls, over the chooser's span). Call after
    * [[Probes.costEvals]].
    */
  def reportChooser(ctx: PassCtx, evals: Int): Unit = {
    val choose = spanMs(ctx, "Layout.chooseCurve")
    ctx.put("WorkloadCost.evals", evals)
    ctx.put("Layout.choose_ms", choose)
    ctx.put("Layout.choose_eval_share", Stats.Ratio(ctx.layer("WorkloadCost.eval_ns") * evals / 1e6, choose).value)
  }

  /** Report `<layer>.init_us` and `<layer>.inits` from the pass's spans. */
  def reportInits(ctx: PassCtx, layer: String): Unit = {
    val inits = ctx.tracer.ofPass(ctx.id).filter(_.name == s"$layer.init")
    if (inits.nonEmpty) {
      ctx.put(s"$layer.init_us", inits.map(_.durationNs).sum / 1e3 / inits.length)
      ctx.put(s"$layer.inits", inits.length)
    }
  }

  /** Mean nanoseconds per call of `f` over `xs`, repeated until at least
    * `minCalls` calls. The results feed a checksum so no call is dead.
    */
  def nsPerCall[A](xs: IndexedSeq[A], minCalls: Int)(f: A => Any): Double = {
    var sink = 0
    def loop(): Int = {
      var calls = 0
      while (calls < minCalls) {
        var i = 0
        while (i < xs.length) { sink ^= f(xs(i)).hashCode; i += 1 }
        calls += xs.length
      }
      calls
    }
    loop() // warm-up: compile before timing
    val t0 = System.nanoTime()
    val calls = loop()
    val ns = (System.nanoTime() - t0).toDouble / calls
    if (sink == 42) Console.err.print("") // keep `sink` live
    ns
  }

  /** Block-access recount of a clustered index, computed independently
    * of `ClusteredIndex`: points in curve order (ties by input position),
    * then the distinct `rank / B` of the points a query holds.
    */
  final class Recount(points: Array[Array[Long]], curve: SpaceFillingCurve, blockSize: Int) {
    private val n = points.length
    require(n < (1 << 21), "recount packs point ids into 21 bits")

    /** Point ids by rank. */
    val order: Array[Int] = {
      val keys = new Array[Long](n)
      var i = 0
      while (i < n) {
        val v = curve.value(points(i))
        require(v >= 0 && v < (1L << 42), s"curve value $v does not fit the recount's packing")
        keys(i) = (v << 21) | i
        i += 1
      }
      java.util.Arrays.sort(keys)
      keys.map(k => (k & ((1 << 21) - 1)).toInt)
    }

    /** (blocks touched, points inside) for query `q`. */
    def apply(q: Rect): (Long, Long) = {
      var blocks = 0L
      var inside = 0L
      var last = -1
      var r = 0
      while (r < n) {
        if (q.contains(points(order(r)))) {
          inside += 1
          val b = r / blockSize
          if (b != last) { blocks += 1; last = b }
        }
        r += 1
      }
      (blocks, inside)
    }
  }

  /** Run every query on every index. One query on all the indexes is one
    * timed operation, as when layouts are compared query by query; its
    * latency is then not a mix of per-curve latencies. Returns the block
    * counts, `blocks(index)(query)`.
    */
  def queryAll(ctx: PassCtx, indexes: Seq[ClusteredIndex], queries: Array[Rect]): Seq[Array[Long]] = {
    val blocks = indexes.map(_ => new Array[Long](queries.length))
    ctx.tracer.span("Query.all") {
      queries.indices.foreach { i =>
        ctx.query("Query.one") {
          indexes.indices.foreach { c =>
            blocks(c)(i) = ctx.tracer.span("ClusteredIndex.blockAccesses")(indexes(c).blockAccesses(queries(i)))
          }
        }
      }
    }
    blocks
  }

  /** Points of `points` inside `q`. */
  def countInside(points: Array[Array[Long]], q: Rect): Long = {
    var c = 0L
    var i = 0
    while (i < points.length) { if (q.contains(points(i))) c += 1; i += 1 }
    c
  }

  /** `k` query positions out of `n`, spread evenly and shifted by pass. */
  def sample(n: Int, k: Int, pass: Int): Seq[Int] =
    (0 until math.min(k, n)).map(j => (j * (n / math.max(1, math.min(k, n))) + pass) % n).distinct
}
