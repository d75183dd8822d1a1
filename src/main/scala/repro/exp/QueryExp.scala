package repro.exp

import repro.core._
import repro.learn.{BMTree, LBMC, Quilts}

/** Query-efficiency and learning-time experiments (Section 6.4:
  * Figures 14–17 and Table 7).
  *
  * Compares the curves learned/constructed by LBMC, BMTree (SP reward,
  * like the released code the paper uses), QUILTS, ZC, HC, and LC by the
  * average number of block accesses on the full dataset — the paper's
  * PostgreSQL metric, simulated by [[repro.core.ClusteredIndex]].
  */
object QueryExp {

  /** Defaults of Sections 6.3–6.4 (scaled from Table 5, see DESIGN.md § 6). */
  val DefaultBits = 16
  val DefaultN = 100_000
  val LearnQueries = 200
  val TestQueries = 400
  val DefaultBlock = 128
  // Queries cover (8192/65536)² ≈ 1.6% of the space — selective enough to
  // be index-friendly, large enough that block counts differentiate curves
  // (the paper's PostgreSQL runs report thousands of block reads/query).
  val DefaultEdge = 8192L
  val DefaultH = 6
  val DefaultRho = 0.02

  final case class CurveRow(name: String, curve: SpaceFillingCurve, learnNanos: Long)

  /** Build all six competitors for one dataset + learning workload. */
  def competitors(data: Array[Array[Long]],
                  learnQs: Array[Rect],
                  bits: Int = DefaultBits,
                  h: Int = DefaultH,
                  rho: Double = DefaultRho): Seq[CurveRow] = {
    val (wc, wcNanos) = TableFmt.timed(WorkloadCost(learnQs.toSeq, 2, bits))

    val lbmcRes = new LBMC(wc).learn(BMC.zOrder(2, bits))
    val lbmc = CurveRow("LBMC", lbmcRes.best, wcNanos + lbmcRes.totalNanos)

    val bmRes = BMTree.learn(learnQs.toSeq, data, 2, bits, h, rho, BMTree.SPReward, DefaultBlock, seed = 31)
    val bmtree = CurveRow("BMTree", bmRes.curve, bmRes.totalNanos)

    val ((quiltsCurve, _), quiltsNanos) = TableFmt.timed(Quilts.design(wc, bits))
    val quilts = CurveRow("QUILTS", quiltsCurve, wcNanos + quiltsNanos)

    Seq(
      lbmc, bmtree, quilts,
      CurveRow("ZC", BMC.zOrder(2, bits), 0L),
      CurveRow("HC", new Hilbert(2, bits), 0L),
      CurveRow("LC", BMC.lexicographic(2, bits, 0), 0L),
    )
  }

  /** Average block accesses of each curve over the test workload. */
  def evaluate(data: Array[Array[Long]], curves: Seq[CurveRow], testQs: Array[Rect],
               blockSize: Int = DefaultBlock): Seq[(String, Double)] =
    curves.map { c =>
      val idx = ClusteredIndex.build(data, c.curve, blockSize)
      (c.name, idx.avgBlockAccesses(testQs.toSeq))
    }

  /** Figs. 14–17: average block accesses, one row per setting and one
    * column per curve.
    */
  private def blockTable(caption: String, param: String,
                         rows: Seq[(String, Seq[(String, Double)])]): String =
    TableFmt.render(caption, param +: rows.head._2.map(_._1),
      rows.map { case (label, scores) => label +: scores.map { case (_, ba) => f"$ba%.1f" } })

  /** Fig. 14: all curves on all four datasets. */
  def overall(n: Int = DefaultN, bits: Int = DefaultBits, edge: Long = DefaultEdge,
              seed: Long = 41): Figure[Seq[(String, Seq[(String, Double)])]] = {
    val results = SpatialGen.Distributions.map { dist =>
      val data = SpatialGen.quantizeAll(SpatialGen.points(dist, n, seed), bits)
      val learnQs = Workloads.squares(dist, LearnQueries, edge, bits, seed + 1)
      val testQs = Workloads.squares(dist, TestQueries, edge, bits, seed + 2)
      val curves = competitors(data, learnQs, bits)
      (dist, evaluate(data, curves, testQs))
    }
    Figure(results, blockTable("Fig 14: avg block accesses (rows=dataset, cols=curve)", "dataset", results))
  }

  /** Fig. 15: vary the dataset cardinality (OSM-like data). Returns per N
    * the block accesses per curve.
    */
  def varyCardinality(ns: Seq[Int] = Seq(10_000, 100_000, 1_000_000),
                      bits: Int = DefaultBits, edge: Long = DefaultEdge,
                      seed: Long = 51): Figure[Seq[(Int, Seq[(String, Double)])]] = {
    val results = ns.map { n =>
      val data = SpatialGen.quantizeAll(SpatialGen.points("OSM", n, seed), bits)
      val learnQs = Workloads.squares("OSM", LearnQueries, edge, bits, seed + 1)
      val testQs = Workloads.squares("OSM", TestQueries, edge, bits, seed + 2)
      (n, evaluate(data, competitors(data, learnQs, bits), testQs))
    }
    Figure(results, blockTable("Fig 15: avg block accesses vs N (OSM-like)", "N",
      results.map { case (n, scores) => (n.toString, scores) }))
  }

  /** Fig. 16: vary the query aspect ratio at fixed area (OSM-like). */
  def varyAspectRatio(ratios: Seq[Double] = Seq(16.0, 4.0, 1.0, 0.25, 0.0625),
                      n: Int = DefaultN, bits: Int = DefaultBits, edge: Long = DefaultEdge,
                      seed: Long = 61): Figure[Seq[(String, Seq[(String, Double)])]] = {
    val data = SpatialGen.quantizeAll(SpatialGen.points("OSM", n, seed), bits)
    val results = ratios.map { r =>
      val learnQs = Workloads.withAspectRatio("OSM", LearnQueries, edge, r, bits, seed + 1)
      val testQs = Workloads.withAspectRatio("OSM", TestQueries, edge, r, bits, seed + 2)
      val curves = competitors(data, learnQs, bits)
      val label = if (r >= 1) s"${r.toInt}:1" else s"1:${(1 / r).toInt}"
      (label, evaluate(data, curves, testQs))
    }
    Figure(results, blockTable("Fig 16: avg block accesses vs aspect ratio (OSM-like)", "ratio", results))
  }

  /** Fig. 17: vary the query edge length (OSM-like). */
  def varyEdge(edges: Seq[Long] = Seq(2048, 4096, 8192, 16384),
               n: Int = DefaultN, bits: Int = DefaultBits,
               seed: Long = 71): Figure[Seq[(Long, Seq[(String, Double)])]] = {
    val data = SpatialGen.quantizeAll(SpatialGen.points("OSM", n, seed), bits)
    val results = edges.map { e =>
      val learnQs = Workloads.squares("OSM", LearnQueries, e, bits, seed + 1)
      val testQs = Workloads.squares("OSM", TestQueries, e, bits, seed + 2)
      val curves = competitors(data, learnQs, bits)
      (e, evaluate(data, curves, testQs))
    }
    Figure(results, blockTable("Fig 17: avg block accesses vs query edge (OSM-like)", "edge",
      results.map { case (e, scores) => (e.toString, scores) }))
  }

  /** Table 7: learning time of BMTree (SP reward), LBMC and QUILTS vs N on
    * one OSM-like learning workload, as [[competitors]] measures it. Rows
    * are (N, BMTree, LBMC, QUILTS) nanoseconds; the two cost-model
    * learners include the workload scan.
    */
  def learningTime(ns: Seq[Int] = Seq(10_000, 100_000, 1_000_000)): Figure[Seq[(Int, Long, Long, Long)]] = {
    val bits = DefaultBits
    val learnQs = Workloads.squares("OSM", LearnQueries, DefaultEdge, bits, 3)
    // One untimed run first, so the first row does not carry JIT compilation.
    competitors(SpatialGen.quantizeAll(SpatialGen.points("OSM", 5_000, 2), bits), learnQs, bits)
    val rows = ns.map { n =>
      val data = SpatialGen.quantizeAll(SpatialGen.points("OSM", n, 2), bits)
      val nanos = competitors(data, learnQs, bits).map(c => c.name -> c.learnNanos).toMap
      (n, nanos("BMTree"), nanos("LBMC"), nanos("QUILTS"))
    }
    Figure(rows, TableFmt.render("Table 7: SFC learning time (seconds) vs N (OSM-like)",
      Seq("N", "BMTree (s)", "LBMC (s)", "QUILTS (s)"),
      rows.map { case (n, bm, lb, qu) =>
        Seq(n.toString, TableFmt.secs(bm.toDouble), TableFmt.secs(lb.toDouble), TableFmt.secs(qu.toDouble))
      }))
  }
}
