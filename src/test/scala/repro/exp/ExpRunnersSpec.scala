package repro.exp

import repro.SparkSpec
import repro.core._
import repro.learn.BMTree

/** Smoke + invariant tests for the experiment runners the benches and jobs
  * use.
  */
class ExpRunnersSpec extends SparkSpec {

  /** A figure's table has its caption, then the header and one row per
    * setting, each row as wide as the header.
    */
  private def assertTable(table: String, caption: String, header: Seq[String],
                          labels: Seq[String]): Unit = {
    assert(table.contains(s"== $caption =="), table)
    val rows = table.linesIterator.filter(_.startsWith("| "))
      .map(_.split('|').map(_.trim).filter(_.nonEmpty).toSeq).toSeq
    assert(rows.head == header, table)
    assert(rows.tail.map(_.head) == labels, table)
    assert(rows.tail.forall(_.size == header.size), table)
  }

  private val curveNames = Seq("LBMC", "BMTree", "QUILTS", "ZC", "HC", "LC")

  test("TableFmt renders aligned tables") {
    val s = TableFmt.render("cap", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(s.contains("== cap =="))
    assert(s.linesIterator.count(_.startsWith("|")) == 4)
  }

  test("TableFmt.timed measures elapsed time") {
    val (v, t) = TableFmt.timed { Thread.sleep(5); 42 }
    assert(v == 42 && t >= 5_000_000L)
  }

  test("global efficiency row: GC beats NGC at n=64") {
    val row = CostEfficiencyExp.global(n = 64, m = 20)
    assert(row.fastNanosPerEval > 0 && row.naiveNanosPerEval > 0)
    assert(row.gain > 1.0, s"expected speedup, got ${row.gain}")
  }

  test("local efficiency row: LC beats NLC at n=16") {
    val row = CostEfficiencyExp.local(n = 16, m = 20, mNaive = 1)
    assert(row.gain > 10.0, s"expected large speedup, got ${row.gain}")
  }

  test("GC evaluation time is roughly constant in n (Fig. 9a claim)") {
    val small = CostEfficiencyExp.global(n = 4, m = 30)
    val large = CostEfficiencyExp.global(n = 256, m = 30)
    // Naive grows ~64x; fast must grow far less (allow generous jitter).
    val naiveGrowth = large.naiveNanosPerEval / small.naiveNanosPerEval
    val fastGrowth = large.fastNanosPerEval / math.max(1.0, small.fastNanosPerEval)
    assert(naiveGrowth > 8.0, s"naive growth $naiveGrowth")
    assert(fastGrowth < naiveGrowth / 2, s"fast growth $fastGrowth vs naive $naiveGrowth")
  }

  test("BMTreeExp.run produces all three variants with sane metrics") {
    val rows = BMTreeExp.run(dist = "UNI", n = 5000, nQueries = 20, h = 3,
      rho = 0.05, bits = 8, blockSize = 32, edge = 32)
    assert(rows.map(_.variant) == Seq("BMTree-SP", "BMTree-GC", "BMTree-LC"))
    assert(rows.forall(_.blockAccesses >= 0))
    assert(rows.forall(r => r.rewardNanos <= r.learnNanos))
  }

  test("QueryExp.competitors returns the six paper competitors") {
    val bits = 8
    val data = SpatialGen.quantizeAll(SpatialGen.points("UNI", 3000, 1), bits)
    val qs = Workloads.squares("UNI", 20, 16, bits, 2)
    val curves = QueryExp.competitors(data, qs, bits, h = 3, rho = 0.05)
    assert(curves.map(_.name) == Seq("LBMC", "BMTree", "QUILTS", "ZC", "HC", "LC"))
    // All curves are evaluable.
    val rows = QueryExp.evaluate(data, curves, qs, blockSize = 32)
    assert(rows.forall(_._2 > 0))
  }

  test("SP reward dominates GC/LC reward time on large samples (Fig. 11 shape)") {
    val rows = BMTreeExp.run(dist = "OSM", n = 50000, nQueries = 40, h = 4,
      rho = 0.2, bits = 10, blockSize = 64, edge = 64)
    val byName = rows.map(r => r.variant -> r.rewardNanos).toMap
    assert(byName("BMTree-SP") > byName("BMTree-GC"), byName.toString)
    assert(byName("BMTree-SP") > byName("BMTree-LC"), byName.toString)
  }

  test("Table 6 rows: naive time grows with n") {
    val rows = CostEfficiencyExp.table6(maxExp = 6).data
    val ngc = rows.map(_._2.naiveNanosPerEval)
    // n grows 32× across the sweep; NGC is O(n) so the largest point must
    // clearly dominate the cheapest one (JIT jitter tolerated via min).
    assert(ngc.last > ngc.min * 4, s"NGC: $ngc")
  }

  test("BMTree reward abstraction: rewards order candidate dims") {
    // Full-height thin columns: putting an x bit on top keeps the y span
    // low in the merged value, so the global cost must prefer the x split.
    val bits = 4
    val qs = (0 until 16 by 2).map(x => Rect.of2d(x, x, 0, 15))
    val ctx = BMTree.NodeCtx(Array(bits, bits), qs, Array.empty, 16)
    val eval = BMTree.GCReward.forNode(ctx)
    val belowX = Array(bits - 1, bits)
    val sigX = BMC(BMC.interleave(belowX).dims.toSeq :+ 0, 2)
    val belowY = Array(bits, bits - 1)
    val sigY = BMC(BMC.interleave(belowY).dims.toSeq :+ 1, 2)
    assert(eval(sigX) < eval(sigY), s"x-split ${eval(sigX)} vs y-split ${eval(sigY)}")
  }

  // ---------- the figure tables, each run at toy size ----------

  test("Table 6 renders IGC/NGC/ILC/NLC per n") {
    val fig = CostEfficiencyExp.table6(maxExp = 2)
    assertTable(fig.table, "Table 6: initialization costs of GC and LC (varying n)",
      Seq("n", "IGC (ms)", "NGC (ms)", "ILC (ms)", "NLC (s)"), Seq("2", "4"))
  }

  test("Fig 9 panels render GC vs NGC in µs per swept value") {
    val fig = CostEfficiencyExp.fig9a(Seq(0, 2))
    assertTable(fig.table, "Fig 9a: global cost vs n",
      Seq("param", "GC (µs/eval)", "NGC (µs/eval)", "gain"), Seq("n=2^0", "n=2^2"))
    assert(fig.data.size == 2)
  }

  test("Fig 10 panels render LC in µs vs NLC in ms per swept value") {
    val fig = CostEfficiencyExp.fig10b(Seq(8L, 16L))
    assertTable(fig.table, "Fig 10b: local cost vs δ",
      Seq("param", "LC (µs/eval)", "NLC (ms/eval)", "gain"), Seq("δ=8", "δ=16"))
  }

  test("Fig 11 renders each BMTree variant per N") {
    val fig = BMTreeExp.varyCardinality(Seq(2000))
    assertTable(fig.table, "Fig 11: BMTree variants vs N (OSM-like)",
      Seq("N", "variant", "reward (ms)", "learn (ms)", "block accesses"), Seq.fill(3)("2000"))
    assert(fig.data.head._2.map(_.variant) == Seq("BMTree-SP", "BMTree-GC", "BMTree-LC"))
  }

  test("Fig 12 renders each BMTree variant per learning-query count") {
    val fig = BMTreeExp.varyQueries(Seq(10))
    assertTable(fig.table, "Fig 12: BMTree variants vs learning queries (OSM-like)",
      Seq("n queries", "variant", "reward (ms)", "block accesses"), Seq.fill(3)("10"))
  }

  test("Fig 13 renders SP per (ρ, h) and GC/LC per h") {
    val fig = BMTreeExp.varySamplingAndDepth(dist = "UNI", rhos = Seq(0.01), hs = Seq(2))
    assertTable(fig.table, "Fig 13: reward time vs query cost (UNI-like)",
      Seq("config", "reward (ms)", "block accesses"), Seq("SP ρ=0.010 h=2", "GC h=2", "LC h=2"))
  }

  test("Figs 14-17 render block accesses per setting and curve") {
    assertTable(QueryExp.overall(n = 2000, bits = 8, edge = 16).table,
      "Fig 14: avg block accesses (rows=dataset, cols=curve)", "dataset" +: curveNames,
      SpatialGen.Distributions)
    assertTable(QueryExp.varyCardinality(Seq(2000), bits = 8, edge = 16).table,
      "Fig 15: avg block accesses vs N (OSM-like)", "N" +: curveNames, Seq("2000"))
    assertTable(QueryExp.varyAspectRatio(Seq(0.25), n = 2000, bits = 8, edge = 16).table,
      "Fig 16: avg block accesses vs aspect ratio (OSM-like)", "ratio" +: curveNames, Seq("1:4"))
    assertTable(QueryExp.varyEdge(Seq(16L), n = 2000, bits = 8).table,
      "Fig 17: avg block accesses vs query edge (OSM-like)", "edge" +: curveNames, Seq("16"))
  }

  test("Table 7 renders BMTree/LBMC/QUILTS learning time per N") {
    val fig = QueryExp.learningTime(Seq(2000))
    assertTable(fig.table, "Table 7: SFC learning time (seconds) vs N (OSM-like)",
      Seq("N", "BMTree (s)", "LBMC (s)", "QUILTS (s)"), Seq("2000"))
    assert(fig.data.forall { case (_, bm, lb, qu) => bm > 0 && lb > 0 && qu > 0 })
  }
}
