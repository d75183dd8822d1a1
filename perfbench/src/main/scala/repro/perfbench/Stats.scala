package repro.perfbench

/** Summary statistics used for every reported number. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile: the smallest sample with at least `p·n`
    * samples at or below it.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p > 0 && p <= 1, s"percentile $p outside (0, 1]")
    val s = xs.sorted
    s(rank(s.length, p) - 1)
  }

  /** Units of work repeated once per pass: `byPass(p)(k)` is unit k's time
    * in pass p. Returns each unit's fastest repetition.
    */
  def perUnit(byPass: Seq[Seq[Double]]): Seq[Double] = {
    require(byPass.nonEmpty, "no passes")
    val units = byPass.head.length
    require(byPass.forall(_.length == units), s"passes differ in units: ${byPass.map(_.length).mkString(", ")}")
    (0 until units).map(k => byPass.map(_(k)).min)
  }

  /** Samples strictly above the nearest-rank `p` percentile of `n`. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  private def rank(n: Int, p: Double): Int =
    math.max(1, math.ceil(p * n - 1e-9).toInt)

  /** Percentiles a tail latency may be reported at, lowest first. */
  val TailLevels: Seq[Double] = Seq(0.9, 0.99, 0.999)

  /** The highest of [[TailLevels]] with at least `minBeyond` samples
    * beyond it, or None when even p90 has too few.
    */
  def tailLevel(n: Int, minBeyond: Int = 10): Option[Double] =
    TailLevels.filter(beyond(n, _) >= minBeyond).lastOption

  /** A ratio that keeps its base, so reports can state both. */
  final case class Ratio(num: Double, base: Double) {
    def value: Double = if (base == 0) Double.NaN else num / base
    def +(o: Ratio): Ratio = Ratio(num + o.num, base + o.base)
  }
}
