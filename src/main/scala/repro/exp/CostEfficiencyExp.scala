package repro.exp

import java.util.Random
import repro.core._

/** Cost-estimation efficiency experiments (Section 6.2: Figures 9–10 and
  * Table 6).
  *
  * Measures, per candidate BMC, the time to compute the *total workload
  * cost*: the closed-form estimators GC (Eq. 6) / LC (Alg. 2) against the
  * naive baselines NGC (Eq. 5 per query) / NLC (curve-segment scan per
  * query), plus the one-off initialization times IGC / ILC. Queries are
  * squares at random locations, like the paper's.
  */
object CostEfficiencyExp {

  /** One measurement point. All times are nanoseconds. */
  final case class Row(
      label: String,        // e.g. "n=16"
      initNanos: Long,      // IGC or ILC
      fastNanosPerEval: Double, // GC or LC, per candidate BMC
      naiveNanosPerEval: Double // NGC or NLC, per candidate BMC
  ) {
    def gain: Double = naiveNanosPerEval / math.max(1.0, fastNanosPerEval)
  }

  /** Default parameters, following Table 5 of the paper (scaled per
    * DESIGN.md § 6): n = 2⁴ queries, δ = 16·2⁴ = 256 cells, ℓ = 10, d = 2.
    */
  val DefaultN = 16
  val DefaultDelta = 256L
  val DefaultBits = 10
  val DefaultD = 2

  /** Seed of the query draw; the candidate BMCs use `QuerySeed + 1`. */
  private val QuerySeed = 11L

  private def queries(n: Int, delta: Long, bits: Int, d: Int, seed: Long): Array[Rect] = {
    val rng = new Random(seed)
    val k = 1L << bits
    val edge = math.min(delta, k)
    Array.fill(n) {
      val lo = new Array[Long](d)
      val hi = new Array[Long](d)
      var i = 0
      while (i < d) {
        val s = (rng.nextDouble() * (k - edge + 1)).toLong
        lo(i) = s; hi(i) = s + edge - 1
        i += 1
      }
      Rect(lo, hi)
    }
  }

  private def candidates(d: Int, bits: Int, m: Int, seed: Long): Array[BMC] = {
    val rng = new Random(seed)
    Array.fill(m)(BMC.random(d, bits, rng))
  }

  /** Run both cost paths until ~`budgetMs` elapse so the JIT compiles the
    * hot methods before anything is timed (micro-benchmark hygiene; the
    * first few thousand interpreted calls would otherwise dominate at
    * small n).
    */
  private def warmup(budgetMs: Long)(f: => Unit): Unit = {
    val deadline = System.nanoTime() + budgetMs * 1_000_000L
    while (System.nanoTime() < deadline) f
  }

  /** Global-cost measurement at one parameter point. */
  def global(n: Int = DefaultN, delta: Long = DefaultDelta, bits: Int = DefaultBits,
             d: Int = DefaultD, m: Int = 50): Row = {
    val qs = queries(n, delta, bits, d, QuerySeed)
    val cands = candidates(d, bits, m, QuerySeed + 1)
    val est0 = GlobalCost.Estimator(qs, d, bits)
    warmup(60) { est0.cost(cands(0)); GlobalCost.naive(qs.take(4), cands(0)) }
    // IGC: the one-off O(n) scan.
    val initNanos = TableFmt.bestOf(5)(GlobalCost.Estimator(qs, d, bits))
    val est = GlobalCost.Estimator(qs, d, bits)
    // Checksum accumulation keeps the JIT from eliding the work.
    var sink = BigInt(0)
    val fast = TableFmt.bestOf(5) { cands.foreach(c => sink += est.cost(c)) }
    val naive = TableFmt.bestOf(5) { cands.foreach(c => sink += GlobalCost.naive(qs, c)) }
    require(sink != BigInt(-1)) // consume the sink
    Row(s"n=$n,δ=$delta,ℓ=$bits,d=$d", initNanos, fast.toDouble / m, naive.toDouble / m)
  }

  /** Local-cost measurement at one parameter point. The naive scan is
    * O(V) per query, so it is measured over `mNaive` candidates only.
    */
  def local(n: Int = DefaultN, delta: Long = DefaultDelta, bits: Int = DefaultBits,
            d: Int = DefaultD, m: Int = 50, mNaive: Int = 2): Row = {
    val qs = queries(n, delta, bits, d, QuerySeed)
    val cands = candidates(d, bits, m, QuerySeed + 1)
    val tables0 = LocalCost.PatternTables(qs, d, bits)
    warmup(60)(tables0.cost(cands(0)))
    val initNanos = TableFmt.bestOf(3)(LocalCost.PatternTables(qs, d, bits))
    val tables = LocalCost.PatternTables(qs, d, bits)
    var sink = BigInt(0)
    val fast = TableFmt.bestOf(5) { cands.foreach(c => sink += tables.cost(c)) }
    val naiveCands = cands.take(mNaive)
    val (_, naive) = TableFmt.timed { naiveCands.foreach(c => sink += LocalCost.naive(qs.toSeq, c)) }
    require(sink != BigInt(-1))
    Row(s"n=$n,δ=$delta,ℓ=$bits,d=$d", initNanos, fast.toDouble / m, naive.toDouble / mNaive)
  }

  /** Table 6: initialization and naive costs while varying n = 2¹..2¹⁰. */
  def table6(maxExp: Int = 10): Figure[Seq[(Int, Row, Row)]] = {
    val rows = (1 to maxExp).map { e =>
      val n = 1 << e
      (n, global(n = n), local(n = n, mNaive = 1))
    }
    Figure(rows, TableFmt.render("Table 6: initialization costs of GC and LC (varying n)",
      Seq("n", "IGC (ms)", "NGC (ms)", "ILC (ms)", "NLC (s)"),
      rows.map { case (n, g, l) =>
        Seq(n.toString, TableFmt.ms(g.initNanos.toDouble), TableFmt.ms(g.naiveNanosPerEval),
          TableFmt.ms(l.initNanos.toDouble), TableFmt.secs(l.naiveNanosPerEval))
      }))
  }

  /** One Fig. 9 panel: GC vs NGC, both in µs per candidate BMC. */
  private def globalPanel(caption: String, labels: Seq[String], rows: Seq[Row]): Figure[Seq[Row]] =
    Figure(rows, TableFmt.render(caption, Seq("param", "GC (µs/eval)", "NGC (µs/eval)", "gain"),
      labels.zip(rows).map { case (l, r) =>
        Seq(l, TableFmt.micros(r.fastNanosPerEval), TableFmt.micros(r.naiveNanosPerEval),
          f"${r.gain}%.1fx")
      }))

  /** One Fig. 10 panel: LC in µs vs NLC in ms per candidate BMC. */
  private def localPanel(caption: String, labels: Seq[String], rows: Seq[Row]): Figure[Seq[Row]] =
    Figure(rows, TableFmt.render(caption, Seq("param", "LC (µs/eval)", "NLC (ms/eval)", "gain"),
      labels.zip(rows).map { case (l, r) =>
        Seq(l, TableFmt.micros(r.fastNanosPerEval), TableFmt.ms(r.naiveNanosPerEval),
          f"${r.gain}%.0fx")
      }))

  /** ℓ sweeps: query extent scales with the resolution (a fixed real-world
    * query covers 2^(ℓ−10)× more cells per dimension at resolution ℓ),
    * which is what makes the naive scan infeasible at large ℓ.
    */
  private def deltaAt(bits: Int): Long = 16L << (bits - 10)

  // Figs. 9a–d and 10a–d: one parameter swept per panel, the rest at the
  // Table 5 defaults above.
  def fig9a(exps: Seq[Int] = Seq(0, 2, 4, 6, 8, 10)): Figure[Seq[Row]] =
    globalPanel("Fig 9a: global cost vs n", exps.map(e => s"n=2^$e"), exps.map(e => global(n = 1 << e)))

  def fig9b(deltas: Seq[Long] = Seq(16, 32, 64, 128, 256)): Figure[Seq[Row]] =
    globalPanel("Fig 9b: global cost vs δ", deltas.map(dl => s"δ=$dl"), deltas.map(dl => global(delta = dl)))

  def fig9c(bitsSeq: Seq[Int] = Seq(10, 12, 14, 16)): Figure[Seq[Row]] =
    globalPanel("Fig 9c: global cost vs ℓ", bitsSeq.map(b => s"ℓ=$b"),
      bitsSeq.map(b => global(delta = deltaAt(b), bits = b)))

  def fig9d(ds: Seq[Int] = Seq(2, 3, 4)): Figure[Seq[Row]] =
    globalPanel("Fig 9d: global cost vs d (gain column = paper's y-axis)", ds.map(dd => s"d=$dd"),
      ds.map(dd => global(d = dd)))

  def fig10a(exps: Seq[Int] = Seq(0, 2, 4, 6, 8)): Figure[Seq[Row]] =
    localPanel("Fig 10a: local cost vs n", exps.map(e => s"n=2^$e"),
      exps.map(e => local(n = 1 << e, mNaive = 1)))

  def fig10b(deltas: Seq[Long] = Seq(16, 32, 64, 128, 256)): Figure[Seq[Row]] =
    localPanel("Fig 10b: local cost vs δ", deltas.map(dl => s"δ=$dl"), deltas.map(dl => local(delta = dl)))

  def fig10c(bitsSeq: Seq[Int] = Seq(10, 12, 14)): Figure[Seq[Row]] =
    localPanel("Fig 10c: local cost vs ℓ", bitsSeq.map(b => s"ℓ=$b"),
      bitsSeq.map(b => local(delta = deltaAt(b), bits = b, mNaive = 1)))

  /** δ shrinks as d grows so the naive scan's per-query volume δ^d stays manageable. */
  def fig10d(ds: Seq[Int] = Seq(2, 3, 4)): Figure[Seq[Row]] =
    localPanel("Fig 10d: local cost vs d (gain column = paper's y-axis)", ds.map(dd => s"d=$dd"),
      ds.map(dd => local(delta = math.max(4L, 64L >> dd), d = dd, mNaive = 1)))
}
