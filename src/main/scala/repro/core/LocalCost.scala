package repro.core

/** Local cost of range queries under a BMC (Section 4.2).
  *
  * The local cost of a query is its number of *query sections* — maximal
  * runs of consecutive curve values inside the query (Definition 3). It is
  * computed as `S_σ(q) = V(q) − E_σ(q)` (Eq. 7) where `E_σ(q)` counts the
  * *directed edges* (consecutive curve-value pairs both inside q), which in
  * turn are counted from BMC-independent *rise* and *drop* bit patterns
  * (Definitions 4–6) pre-aggregated into per-dimension pattern tables
  * (Algorithm 1). Evaluating a BMC is then `d·ℓ` table lookups
  * (Algorithm 2) — O(1) for constant d, ℓ.
  */
object LocalCost {

  private def pow2(k: Int): Long = 1L << k

  private def ceilDiv(a: Long, b: Long): Long = -Math.floorDiv(-a, b)

  /** N(R_b^k): rise patterns of order `k ≥ 1` inside the inclusive
    * coordinate range `[s, e]` — transitions from `a·2^k + (2^(k−1)−1)` to
    * `a·2^k + 2^(k−1)` with both endpoints in range (Section 4.2.1).
    */
  def riseCount(s: Long, e: Long, k: Int): Long = {
    require(k >= 1, s"rise pattern order must be ≥ 1, got $k")
    val half = pow2(k - 1)
    val aMax = Math.floorDiv(e - half, pow2(k))
    val aMin = math.max(0L, ceilDiv(s - (half - 1), pow2(k)))
    math.max(0L, aMax - aMin + 1)
  }

  /** N(D_b^k): drop patterns of order `k ≥ 0` inside `[s, e]` —
    * transitions from `a·2^k + (2^k−1)` to `a·2^k` with both endpoints in
    * range; `k = 0` is the no-change pattern, counted as the range length.
    */
  def dropCount(s: Long, e: Long, k: Int): Long = {
    require(k >= 0, s"drop pattern order must be ≥ 0, got $k")
    if (k == 0) e - s + 1
    else {
      val aMax = Math.floorDiv(e + 1, pow2(k)) - 1
      val aMin = math.max(0L, ceilDiv(s, pow2(k)))
      math.max(0L, aMax - aMin + 1)
    }
  }

  /** E_σ(q) via per-query pattern counting (Eq. 9), without tables.
    * `O(d·ℓ·(d−1))` per query per BMC — the reference the tables amortize.
    *
    * One pass over σ from rank 0 up; `cnt(m)` counts the dimension-m bits
    * passed. The bit at rank r, of dimension b, is a rise of order
    * `cnt(b)+1`, paired with drops of order `cnt(m)` in every other m.
    */
  def edgesViaPatterns(q: Rect, bmc: BMC): Long = {
    require(q.d == bmc.d, "query/BMC dimensionality mismatch")
    val cnt = new Array[Int](bmc.d)
    var e = 0L
    var r = 0
    while (r < bmc.length) {
      val b = bmc.dims(r)
      val rises = riseCount(q.lo(b), q.hi(b), cnt(b) + 1)
      if (rises != 0) {
        var prod = 1L
        var m = 0
        while (m < bmc.d && prod != 0) {
          if (m != b) prod *= dropCount(q.lo(m), q.hi(m), cnt(m))
          m += 1
        }
        e += rises * prod
      }
      cnt(b) += 1
      r += 1
    }
    e
  }

  /** S_σ(q) for a single query via Eq. 7 with pattern-counted edges. */
  def sections(q: Rect, bmc: BMC): Long = q.volume - edgesViaPatterns(q, bmc)

  /** NLC: the naive scan baseline — enumerate the cells of `q`, map them
    * through the curve, sort, and count maximal runs of consecutive
    * values. `O(V log V)` per query; infeasible for large queries, which
    * is exactly the bottleneck the paper removes. Works for *any* curve
    * (used to cross-check Hilbert/piecewise curves too).
    */
  def sectionsByScan(q: Rect, curve: SpaceFillingCurve): Long = {
    val vol = q.volume
    require(vol <= Int.MaxValue, s"query too large to scan: $vol cells")
    val values = new Array[Long](vol.toInt)
    var i = 0
    Rect.cells(q).foreach { p => values(i) = curve.value(p); i += 1 }
    java.util.Arrays.sort(values)
    var runs = 1L
    i = 1
    while (i < values.length) {
      if (values(i) != values(i - 1) + 1) runs += 1
      i += 1
    }
    runs
  }

  /** Naive total local cost of a workload (Eq. 10 with scanned sections). */
  def naive(queries: Seq[Rect], curve: SpaceFillingCurve): BigInt =
    queries.foldLeft(BigInt(0))((acc, q) => acc + BigInt(sectionsByScan(q, curve)))

  /** LC: pattern tables (Algorithm 1) + O(1) per-BMC evaluation
    * (Algorithm 2).
    *
    * Table^b has ℓ_b rows (rise patterns of dimension b) and
    * `Π_{m≠b}(ℓ_m+1)` columns — one per *drop pattern collection*
    * (Definition 6), i.e. per assignment of a drop order `k_m ∈ [0, ℓ_m]`
    * to every other dimension, encoded in mixed radix. Construction is the
    * O(n)-scan initialization (ILC); [[edges]]/[[cost]] evaluate any BMC
    * with `d·ℓ` lookups.
    */
  final class PatternTables(queries: Seq[Rect], val bitsPerDim: Array[Int]) {
    require(queries.nonEmpty, "empty workload")

    /** Dimensionality, one per entry of `bitsPerDim`. */
    val d: Int = bitsPerDim.length

    /** Dimensions other than b, in ascending order (column radix order). */
    private val others: Array[Array[Int]] =
      Array.tabulate(d)(b => (0 until d).filter(_ != b).toArray)

    /** `strides(b)(m)`: mixed-radix stride of dimension m's drop order in
      * Table^b's columns; 0 for m = b, which has no drop order there.
      */
    private val strides: Array[Array[Int]] = Array.tabulate(d) { b =>
      val s = new Array[Int](d)
      var acc = 1
      for (m <- others(b)) {
        s(m) = acc
        acc *= bitsPerDim(m) + 1
      }
      s
    }

    private def numCols(b: Int): Int =
      others(b).foldLeft(1L)((acc, m) => acc * (bitsPerDim(m) + 1)).toInt

    /** Σ_q V(q), BMC-independent (computed in the same O(n) scan). */
    val totalVolume: BigInt = queries.foldLeft(BigInt(0))((acc, q) => acc + BigInt(q.volume))

    /** Number of queries in the workload. */
    val n: Int = queries.size

    /** tables(b)(i−1)(col) = Σ_q N_q(R_b^i) · Π_{m≠b} N_q(D_m^{k_m}).
      *
      * Buffers are hoisted out of the per-query loop: this constructor is
      * the ILC initialization the benches time, and per-query allocations
      * would dominate it.
      */
    val tables: Array[Array[Array[Long]]] = try {
      val t = Array.tabulate(d)(b => Array.ofDim[Long](bitsPerDim(b), numCols(b)))
      val drops = Array.tabulate(d)(m => new Array[Long](bitsPerDim(m) + 1))
      val prods = Array.tabulate(d)(b => new Array[Long](numCols(b)))
      for (q <- queries) {
        Rect.requireInGrid(q, bitsPerDim)
        var m = 0
        while (m < d) {
          var k = 0
          while (k <= bitsPerDim(m)) {
            drops(m)(k) = dropCount(q.lo(m), q.hi(m), k)
            k += 1
          }
          m += 1
        }
        var b = 0
        while (b < d) {
          val prod = prods(b)
          fillDropProducts(b, drops, prod)
          var i = 1
          while (i <= bitsPerDim(b)) {
            val rises = riseCount(q.lo(b), q.hi(b), i)
            if (rises != 0) {
              val row = t(b)(i - 1)
              var c = 0
              while (c < row.length) {
                row(c) = Math.addExact(row(c), rises * prod(c))
                c += 1
              }
            }
            i += 1
          }
          b += 1
        }
      }
      t
    } catch { case e: ArithmeticException => throw overflow(e) }

    /** Cells and edge sums are Long; a workload whose edge count exceeds
      * `Long` range is rejected rather than wrapped.
      */
    private def overflow(e: ArithmeticException) = new IllegalArgumentException(
      s"local cost overflows Long arithmetic: the workload's total volume is $totalVolume cells", e)

    /** Fill `out(col) = Π_{m≠b} N(D_m^{k_m})` for every column of Table^b,
      * expanding one other-dimension at a time in place (no allocation).
      */
    private def fillDropProducts(b: Int, drops: Array[Array[Long]], out: Array[Long]): Unit = {
      val o = others(b)
      out(0) = 1L
      var size = 1
      var i = 0
      while (i < o.length) {
        val dm = drops(o(i))
        // Expand from high k down so lower segments are still intact.
        var k = dm.length - 1
        while (k >= 0) {
          val base = k * size
          var j = size - 1
          while (j >= 0) {
            out(base + j) = out(j) * dm(k)
            j -= 1
          }
          k -= 1
        }
        size *= dm.length
        i += 1
      }
    }

    /** Σ_q E_σ(q) in `O(d·ℓ)` lookups (Algorithm 2's loop + get_col).
      *
      * One pass over σ from rank 0 up, as in [[edgesViaPatterns]]: the bit
      * at rank r, of dimension b, reads Table^b's row `bitOfDim(r)` at
      * column `col(b) = Σ_{m≠b} cnt(m)·strides(b)(m)`; each bit passed moves
      * every table's column along by its dimension's stride.
      */
    def edges(bmc: BMC): Long = {
      require(bmc.d == d && java.util.Arrays.equals(bmc.bitsPerDim, bitsPerDim),
        "BMC shape does not match the tables' (d, ℓ)")
      val col = new Array[Int](d)
      var e = 0L
      var r = 0
      try while (r < bmc.length) {
        val b = bmc.dims(r)
        e = Math.addExact(e, tables(b)(bmc.bitOfDim(r))(col(b)))
        var m = 0
        while (m < d) {
          col(m) += strides(m)(b)
          m += 1
        }
        r += 1
      } catch { case ex: ArithmeticException => throw overflow(ex) }
      e
    }

    /** Total local cost `Σ_q S_σ(q) = ΣV − ΣE_σ` (Eq. 10) — O(1) per BMC. */
    def cost(bmc: BMC): BigInt = totalVolume - BigInt(edges(bmc))
  }

  object PatternTables {
    /** Uniform-ℓ convenience constructor. */
    def apply(queries: Seq[Rect], d: Int, bits: Int): PatternTables =
      new PatternTables(queries, Array.fill(d)(bits))
  }
}
