package repro.learn

import repro.SparkSpec
import repro.core._

/** LBMC reinforcement-learning curve search (Section 5, Algorithm 3). */
class LBMCSpec extends SparkSpec {

  private def workload(seed: Long, bits: Int, n: Int = 24): WorkloadCost = {
    // Stretched queries: tall thin rectangles make the optimum non-trivial.
    val rng = new java.util.Random(seed)
    val k = 1L << bits
    val qs = Seq.fill(n) {
      val x0 = rng.nextInt(k.toInt - 1).toLong
      val y0 = rng.nextInt(k.toInt / 2).toLong
      Rect.of2d(x0, math.min(k - 1, x0 + 1), y0, math.min(k - 1, y0 + k / 2))
    }
    WorkloadCost(qs, 2, bits)
  }

  test("state encoding is one-hot over (rank, dimension)") {
    val wc = workload(1, 3)
    val lbmc = new LBMC(wc)
    val sigma = BMC.fromString("XXYYXY")
    val x = lbmc.encode(sigma)
    assert(x.length == 12)
    assert(x.count(_ == 1.0) == 6)
    // Rank 0 is Y (last letter): position 0*2+1 set.
    assert(x(1) == 1.0 && x(0) == 0.0)
  }

  test("learning finds the exhaustive optimum on the d=2, l=3 space") {
    val wc = workload(2, 3)
    val exhaustive = BMC.all(2, 3).map(wc.cost).min
    val res = new LBMC(wc, LBMCConfig(episodes = 20, steps = 20, seed = 1))
      .learn(BMC.zOrder(2, 3))
    assert(res.bestCost == exhaustive,
      s"LBMC found ${res.bestCost}, optimum is $exhaustive")
  }

  test("learning approaches the exhaustive optimum on the d=2, l=4 space") {
    val wc = workload(3, 4)
    val exhaustive = BMC.all(2, 4).map(wc.cost).min
    val res = new LBMC(wc, LBMCConfig(episodes = 25, steps = 30, seed = 2))
      .learn(BMC.zOrder(2, 4))
    assert(res.bestCost.doubleValue <= exhaustive.doubleValue * 1.1,
      s"LBMC found ${res.bestCost}, optimum is $exhaustive")
  }

  test("best curve never costs more than the initial curve") {
    val wc = workload(4, 4)
    val init = BMC.lexicographic(2, 4, 0)
    val res = new LBMC(wc, LBMCConfig(episodes = 5, steps = 10, seed = 3)).learn(init)
    assert(res.bestCost <= wc.cost(init))
  }

  test("cost trace is normalized to the initial cost (Fig. 8e)") {
    val wc = workload(5, 3)
    val res = new LBMC(wc, LBMCConfig(episodes = 3, steps = 8, seed = 4))
      .learn(BMC.zOrder(2, 3))
    assert(res.costTrace.size == 3 * 8)
    assert(res.costTrace.forall(_ > 0))
    assert(res.costTrace.min <= 1.0 + 1e-9)
  }

  test("the learned result is a valid BMC of the right shape") {
    val wc = workload(6, 4)
    val res = new LBMC(wc, LBMCConfig(episodes = 3, steps = 10, seed = 5))
      .learn(BMC.zOrder(2, 4))
    assert(res.best.d == 2)
    assert(res.best.bitsPerDim.toSeq == Seq(4, 4))
  }

  test("learning is deterministic in the config seed") {
    val wc = workload(7, 3)
    val cfg = LBMCConfig(episodes = 4, steps = 10, seed = 9)
    val a = new LBMC(wc, cfg).learn(BMC.zOrder(2, 3))
    val b = new LBMC(wc, cfg).learn(BMC.zOrder(2, 3))
    assert(a.best == b.best)
    assert(a.costTrace == b.costTrace)
  }

  test("reward time is measured and bounded by total time") {
    val wc = workload(8, 3)
    val res = new LBMC(wc, LBMCConfig(episodes = 2, steps = 5, seed = 6))
      .learn(BMC.zOrder(2, 3))
    assert(res.rewardNanos > 0)
    assert(res.rewardNanos <= res.totalNanos)
  }

  test("a replay memory smaller than the run keeps sampling oldest-first") {
    // 24 steps through 6 replay slots: every step past the 6th evicts the
    // oldest transition. The sampler's draw i must pick the i-th oldest
    // transition; drawing any other one changes the pinned trace.
    val wc = workload(10, 3)
    val res = new LBMC(wc, LBMCConfig(episodes = 3, steps = 8, batch = 4, replay = 6, seed = 13))
      .learn(BMC.zOrder(2, 3))
    assert(res.best == BMC.fromString("XYXYYX"))
    assert(res.bestCost == BigInt(46500))
    assert(res.costTrace == Vector(
      0.9562626946513202, 0.8384563303994583, 0.8844955991875423, 0.5247122545700744,
      0.8844955991875423, 0.8384563303994583, 0.9562626946513202, 0.8384563303994583,
      0.9530128639133378, 1.0, 0.9562626946513202, 0.8384563303994583,
      0.9562626946513202, 0.8384563303994583, 0.9562626946513202, 0.8384563303994583,
      0.588490182802979, 0.5247122545700744, 0.588490182802979, 0.5247122545700744,
      0.588490182802979, 0.5247122545700744, 0.588490182802979, 0.5247122545700744))
  }

  test("a run through a target sync and the whole exploit schedule is pinned") {
    // 80 steps with a 4-transition minibatch: the DQN trains from step 4,
    // the target network syncs at step 50, and ε runs from its first to
    // its last value. Each of these one-constant changes alters the trace:
    // γ 0.9 → 0.8 or 0.91, hidden width 64 → 32 or 65, learning rate ×1.1
    // or ×2, first ε 0.5 → 0.4, last ε 0.95 → 0.9 or 0.96, sync period
    // 50 → 49, 51 or never.
    val wc = workload(11, 4)
    val res = new LBMC(wc, LBMCConfig(episodes = 4, steps = 20, batch = 4, seed = 17))
      .learn(BMC.zOrder(2, 4))
    assert(res.best == BMC.fromString("XYYXXYXY"))
    assert(res.bestCost == BigInt(249392))
    assert(res.costTrace == Vector(
      1.0469521244434672, 1.0, 0.7088440609025449, 0.7500247347881053,
      1.0469521244434672, 1.2108833067663387, 0.6712801626999395, 0.6331775957785961,
      0.5908866047380861, 0.6331775957785961, 0.5908866047380861, 0.5268509866432144,
      0.9776067718353213, 0.9634364865607651, 1.0768977079096356, 0.9634364865607651,
      0.9776067718353213, 0.9634364865607651, 0.9776067718353213, 1.0921893035782992,
      0.9331116363436487, 0.919408563733304, 0.6339801022371242, 0.6447864563293575,
      0.6339801022371242, 0.6447864563293575, 0.6339801022371242, 0.6447864563293575,
      0.349804870004947, 0.6447864563293575, 0.349804870004947, 0.6447864563293575,
      0.349804870004947, 0.6447864563293575, 0.349804870004947, 0.6447864563293575,
      0.6339801022371242, 0.6447864563293575, 0.349804870004947, 0.5046226570659045,
      0.9856813059968119, 1.0, 0.7088440609025449, 0.38761061946902653,
      0.342703237508932, 0.38761061946902653, 0.342703237508932, 0.38761061946902653,
      0.342703237508932, 0.38761061946902653, 0.342703237508932, 0.4997251690210521,
      0.5452591656131479, 0.4997251690210521, 0.5452591656131479, 0.4997251690210521,
      0.5452591656131479, 0.4997251690210521, 0.9180673885560381, 0.9633705271258176,
      0.9856813059968119, 1.0, 0.9180673885560381, 0.9633705271258176,
      0.667069752102457, 0.6275380640905843, 0.667069752102457, 0.6275380640905843,
      0.667069752102457, 0.6275380640905843, 0.342703237508932, 0.6275380640905843,
      0.342703237508932, 0.38761061946902653, 0.342703237508932, 0.38761061946902653,
      0.342703237508932, 0.38761061946902653, 0.342703237508932, 0.38761061946902653))
  }

  test("a mismatched initial BMC is rejected") {
    val wc = workload(9, 3)
    intercept[IllegalArgumentException](new LBMC(wc).learn(BMC.zOrder(2, 4)))
  }

  test("LBMC beats ZC for a workload that ZC serves poorly") {
    // Thin full-height column queries: the optimum keeps y bits low.
    val bits = 4
    val k = 1L << bits
    val qs = (0 until k.toInt).map(x => Rect.of2d(x, x, 0, k - 1))
    val wc = WorkloadCost(qs, 2, bits)
    val res = new LBMC(wc, LBMCConfig(episodes = 20, steps = 30, seed = 7))
      .learn(BMC.zOrder(2, bits))
    assert(res.bestCost < wc.cost(BMC.zOrder(2, bits)))
  }
}
