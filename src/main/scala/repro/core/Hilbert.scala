package repro.core

/** d-dimensional Hilbert curve (the HC baseline of Section 6.4).
  *
  * Uses John Skilling's transpose algorithm ("Programming the Hilbert
  * curve", AIP Conf. Proc. 707, 2004): Gray-code / axis-exchange transform
  * of the coordinates followed by bit interleaving. Requires uniform bits
  * per dimension and `d·bits ≤ 62`.
  */
final class Hilbert(val d: Int, val bits: Int) extends SpaceFillingCurve {
  require(d >= 1 && bits >= 1 && d * bits <= 62,
    s"unsupported Hilbert shape d=$d bits=$bits")

  override def name: String = s"HC(d=$d,l=$bits)"

  override def value(p: Array[Long]): Long = {
    require(p.length == d, s"point has ${p.length} dims, curve has $d")
    val x = p.clone()
    // Inverse undo excess work: transform axes to transpose form.
    var q = 1L << (bits - 1)
    while (q > 1) {
      val mask = q - 1
      var i = 0
      while (i < d) {
        if ((x(i) & q) != 0) x(0) ^= mask // invert
        else { val t = (x(0) ^ x(i)) & mask; x(0) ^= t; x(i) ^= t } // exchange
        i += 1
      }
      q >>= 1
    }
    // Gray encode.
    var i = 1
    while (i < d) { x(i) ^= x(i - 1); i += 1 }
    var t = 0L
    q = 2L
    while (q != (1L << bits)) {
      if ((x(d - 1) & q) != 0) t ^= q - 1
      q <<= 1
    }
    i = 0
    while (i < d) { x(i) ^= t; i += 1 }
    // Interleave the transpose: bit b of dim i → output bit b·d + (d−1−i),
    // so dimension 0 carries the most significant bit of each group.
    var v = 0L
    var b = 0
    while (b < bits) {
      i = 0
      while (i < d) {
        v |= ((x(i) >>> b) & 1L) << (b * d + (d - 1 - i))
        i += 1
      }
      b += 1
    }
    v
  }
}
