package repro.perfbench

import repro.core._
import repro.learn.MLP

/** Per-call costs and counts measured after a traced pass, off its clock. */
object Probes {

  /** Per-candidate cost of each cost-model entry point, over the
    * candidates the chooser scored (at least 10⁵ calls each).
    */
  def costEvals(ctx: PassCtx, wc: WorkloadCost, candidates: IndexedSeq[BMC]): Unit = {
    val calls = 100000
    ctx.put("GlobalCost.eval_ns", Calls.nsPerCall(candidates, calls)(wc.global.cost))
    ctx.put("LocalCost.eval_ns", Calls.nsPerCall(candidates, calls)(wc.local.cost))
    ctx.put("WorkloadCost.eval_ns", Calls.nsPerCall(candidates, calls)(wc.cost))
    ctx.put("WorkloadCost.evalD_ns", Calls.nsPerCall(candidates, calls)(wc.costD))
  }

  /** Forward and minibatch-training cost of the DQN's network at the
    * shapes LBMC gives it for `wc`: one-hot σ in, one Q-value per swap out.
    */
  def mlp(ctx: PassCtx, wc: WorkloadCost): Unit = {
    val bits = wc.bitsPerDim.sum
    val in = bits * wc.d
    val net = new MLP(Array(in, 64, bits - 1), seed = 1)
    val rng = new java.util.Random(2)
    val states = Vector.fill(256) {
      val x = new Array[Double](in)
      (0 until bits).foreach(r => x(r * wc.d + rng.nextInt(wc.d)) = 1.0)
      x
    }
    ctx.put("MLP.forward_us", Calls.nsPerCall(states, 20000)(net.forward) / 1e3)
    val batches = Vector.fill(16)(Seq.fill(32)((states(rng.nextInt(states.length)), rng.nextInt(bits - 1), rng.nextGaussian())))
    ctx.put("MLP.train_batch_us", Calls.nsPerCall(batches, 400)(net.trainBatch) / 1e3)
  }

  /** Work a query does beside the blocks it reads: qualifying points per
    * query, the share of read block slots they fill, and the local cost
    * model's sections per query for the BMC curves among `curves`.
    * `inside(i)` is query i's point count, `blocks(c)(i)` its block count
    * on curve c.
    */
  def queryShape(ctx: PassCtx, inside: Array[Long], queries: Array[Rect],
                 curves: Seq[SpaceFillingCurve], blocks: Seq[Array[Long]], blockSize: Int): Unit = {
    ctx.put("ClusteredIndex.points_in_query", inside.sum.toDouble / queries.length)
    val filled = Stats.Ratio(inside.sum.toDouble * blocks.length, blocks.map(_.sum).sum.toDouble * blockSize)
    ctx.put("ClusteredIndex.block_fill", filled.value)
    val bmcs = curves.collect { case b: BMC => b }
    if (bmcs.nonEmpty) {
      val sections = for (b <- bmcs; q <- queries) yield LocalCost.sections(q, b).toDouble
      ctx.put("LocalCost.sections_per_query", sections.sum / sections.length)
    }
  }
}
