package repro.perfbench

import repro.core._
import repro.learn._
import repro.spark.Layout

/** design-osm: curve design for 1024 OSM-like 8192² queries at d=2, ℓ=16.
  *
  * Each pass runs the cost-model init, LBMC (100 episodes × 40 steps, so
  * the 2048-entry replay memory overflows), BMTree-GC and BMTree-LC at
  * h=10, QUILTS, and `Layout.chooseCurve` over 10⁵ seeded random BMCs plus
  * the designed and deterministic curves. BMTree-SP (h=6, 200 of the
  * queries) learns from a 20% sample of 10⁵ points, through many small
  * builds and scans. The pass then lays the data out: a clustered index of
  * the 10⁵ points for Z-order, Hilbert, LBMC's best, QUILTS' best, the
  * chosen curve and the SP curve, each running 256 of the queries.
  */
final class DesignWorkload(seed: Long) extends Workload {
  override val name = "design-osm"
  private val D = 2
  private val Bits = 16
  private val NQueries = 1024
  private val Edge = 8192L
  private val NRandom = 100000
  private val NPoints = 100000
  private val BlockSize = 128
  private val Depth = 10
  private val SpDepth = 6
  private val SpQueries = 200
  // 20% of 10⁵ points: the 2 · 10⁴ sample that ρ=0.02 draws from 10⁶.
  private val SpRho = 0.2
  private val LbmcCfg = LBMCConfig(episodes = 100, steps = 40, seed = seed)
  private val NValidate = 256
  private val ChecksPerCurve = 4

  private val zc = BMC.zOrder(D, Bits)
  private var queries: Array[Rect] = _
  private var validateQs: Array[Rect] = _
  private var candidates: IndexedSeq[BMC] = _
  private var points: Array[Array[Long]] = _
  private var inside: Array[Long] = _

  // Outputs of the last pass, for verify and probe.
  private var wc: WorkloadCost = _
  private var lbmc: LBMCResult = _
  private var trees: Seq[(String, BMTree.Result)] = _
  private var sp: BMTree.Result = _
  private var quilts: (BMC, BigInt) = _
  private var chosen: (BMC, BigInt) = _
  private var evaluated: IndexedSeq[BMC] = _
  private var designs: Seq[(String, BMC)] = _
  private var laidOut: Seq[(String, SpaceFillingCurve)] = _
  private var blocks: Seq[Array[Long]] = _

  /** The pass's three BMTrees: (tag, depth limit, result). */
  private def learnedTrees: Seq[(String, Int, BMTree.Result)] =
    trees.map { case (tag, r) => (tag, Depth, r) } :+ (("sp", SpDepth, sp))

  override def setup(): Map[String, Double] = {
    points = Inputs.osmPoints(NPoints, Bits)
    val rng = new java.util.Random(seed)
    queries = Inputs.rectsOnData(points, NQueries, Edge, Edge, Bits, rng)
    validateQs = queries.take(NValidate)
    inside = null
    candidates = Vector.fill(NRandom)(BMC.random(D, Bits, rng)) ++
      (zc +: (0 until D).map(BMC.lexicographic(D, Bits, _)))
    Map.empty
  }

  override def pass(ctx: PassCtx): Unit = {
    def learn[A](span: String)(f: => A): A = ctx.stage("learn", span)(f)
    wc = learn("WorkloadCost.init")(WorkloadCost(queries.toSeq, D, Bits))
    lbmc = learn("LBMC.learn")(new LBMC(wc, LbmcCfg).learn(zc))
    trees = Seq("gc" -> BMTree.GCReward, "lc" -> BMTree.LCReward).map { case (tag, r) =>
      tag -> learn("BMTree.learn")(BMTree.learn(
        queries.toSeq, Array.empty, D, Bits, Depth, 0.0, Calls.reward(ctx, r)))
    }
    quilts = learn("Quilts.design")(Quilts.design(wc, Bits))
    evaluated = candidates :+ lbmc.best :+ quilts._1
    chosen = learn("Layout.chooseCurve")(Layout.chooseCurve(wc, evaluated))
    sp = learn("BMTree.learn")(BMTree.learn(
      queries.take(SpQueries).toSeq, points, D, Bits, SpDepth, SpRho, BMTree.SPReward, BlockSize, seed))
    designs = Seq("Z-order" -> zc, "LBMC" -> lbmc.best, "QUILTS" -> quilts._1, "chosen" -> chosen._1)
    laidOut = designs ++ Seq("Hilbert" -> new Hilbert(D, Bits), "BMTree-SP" -> sp.curve)
    val indexes = laidOut.map { case (_, c) =>
      ctx.stage("layout", "Design.layout")(Calls.buildIndex(ctx, points, c, BlockSize))
    }
    blocks = Calls.queryAll(ctx, indexes, validateQs)
  }

  override def verify(ctx: PassCtx): Unit = {
    // LBMC, three BMTrees, QUILTS, the chooser, the index builds, the queries.
    ctx.ops(6L + laidOut.length * (1L + validateQs.length))
    val exact = designs.map { case (n, c) =>
      val e = wc.cost(c)
      val model = GlobalCost.naive(queries.toSeq, c) * queries.map(q => BigInt(LocalCost.sections(q, c))).sum
      ctx.check(e == model, s"$name: cost of $n curve $c: WorkloadCost $e != NGC × Σ sections $model")
      n -> e
    }.toMap
    ctx.check(lbmc.bestCost == exact("LBMC") && lbmc.bestCost <= exact("Z-order"),
      s"$name: LBMC best ${lbmc.bestCost} is worse than Z-order ${exact("Z-order")}")
    ctx.check(quilts._2 == exact("QUILTS"), s"$name: QUILTS reports cost ${quilts._2}")
    ctx.check(chosen._2 == exact("chosen") && exact.values.forall(chosen._2 <= _),
      s"$name: chooser returned ${chosen._1} at ${chosen._2}, not the cheapest")
    learnedTrees.foreach { case (tag, depth, r) =>
      ctx.check(r.nodes > 0 && r.curve.depth <= depth && r.rewardNanos <= r.totalNanos,
        s"$name: BMTree-$tag learned ${r.nodes} nodes at depth ${r.curve.depth}")
    }
    if (inside == null) inside = validateQs.map(Calls.countInside(points, _))
    ctx.rowsRead = Stats.Ratio(blocks.map(_.sum).sum.toDouble * BlockSize, inside.sum.toDouble * laidOut.length)
    laidOut.zip(blocks).foreach { case ((n, c), bs) =>
      val recount = new Calls.Recount(points, c, BlockSize)
      Calls.sample(validateQs.length, ChecksPerCurve, ctx.id).foreach { i =>
        val (b, in) = recount(validateQs(i))
        ctx.check(b == bs(i) && in == inside(i),
          s"$name: $n curve, query $i touches $b blocks by recount, ${bs(i)} by the index")
      }
    }
  }

  override def probe(ctx: PassCtx): Unit = {
    Calls.reportLBMC(ctx, lbmc)
    ctx.put("LBMC.cost_ratio", (BigDecimal(lbmc.bestCost) / BigDecimal(wc.cost(zc))).toDouble)
    learnedTrees.foreach { case (tag, _, r) => Calls.reportBMTree(ctx, tag, r) }
    Calls.reportInits(ctx, "GlobalCost")
    Calls.reportInits(ctx, "LocalCost")
    ctx.put("Quilts.ms", Calls.spanMs(ctx, "Quilts.design"))
    ctx.put("Quilts.candidates", Quilts.candidates(queries.toSeq, D, Bits).length)
    Probes.costEvals(ctx, wc, evaluated)
    Calls.reportChooser(ctx, evaluated.length)
    Probes.mlp(ctx, wc)
    ctx.put("ClusteredIndex.query_us", Calls.spanMs(ctx, "ClusteredIndex.blockAccesses") * 1e3 /
      (laidOut.length * validateQs.length))
    Probes.queryShape(ctx, inside, validateQs, laidOut.map(_._2), blocks, BlockSize)
  }
}
