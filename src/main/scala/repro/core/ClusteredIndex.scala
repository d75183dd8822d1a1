package repro.core

/** A clustered B⁺-tree over SFC values, simulated at block granularity —
  * the substitute for the paper's PostgreSQL measurements (DESIGN.md § 4).
  *
  * Points are sorted by curve value and packed `blockSize` per block, the
  * way a B⁺-tree clusters a table on its key. The cost of a range query is
  * the number of distinct blocks that hold at least one qualifying point:
  * exactly the leaf/heap block reads of an index scan, and the quantity
  * the paper's local cost models (more query sections → the qualifying
  * points are split over more blocks; see Fig. 5 of the paper).
  */
final class ClusteredIndex private (
    coords: Array[Array[Long]], // column-major: coords(dim)(rankedPointIdx)
    val blockSize: Int,
    val d: Int) {

  /** Number of indexed points. */
  def size: Int = if (d == 0) 0 else coords(0).length

  /** Number of blocks a range query touches. */
  def blockAccesses(q: Rect): Long = {
    require(q.d == d, "query/index dimensionality mismatch")
    val n = size
    var count = 0L
    var lastBlock = -1L
    var i = 0
    while (i < n) {
      var in = true
      var dim = 0
      while (in && dim < d) {
        val v = coords(dim)(i)
        if (v < q.lo(dim) || v > q.hi(dim)) in = false
        dim += 1
      }
      if (in) {
        val b = i / blockSize
        if (b != lastBlock) { count += 1; lastBlock = b }
      }
      i += 1
    }
    count
  }

  /** Mean block accesses over a workload — the paper's core query metric. */
  def avgBlockAccesses(queries: Seq[Rect]): Double =
    if (queries.isEmpty) 0.0
    else queries.map(blockAccesses).sum.toDouble / queries.size
}

object ClusteredIndex {

  /** Build the simulated clustered index: sort `points` by `curve` value
    * (ties impossible for distinct cells; equal cells tie-break stably)
    * and pack `blockSize` points per block.
    */
  def build(points: Array[Array[Long]], curve: SpaceFillingCurve, blockSize: Int): ClusteredIndex =
    buildWithValues(points, points.map(curve.value), blockSize)

  /** Build from precomputed curve values, so a caller can time or check
    * the value computation apart from the sort and packing.
    */
  def buildWithValues(points: Array[Array[Long]], values: Array[Long], blockSize: Int): ClusteredIndex = {
    require(points.length == values.length, "points/values length mismatch")
    require(blockSize >= 1, "blockSize must be ≥ 1")
    val d = if (points.isEmpty) 0 else points(0).length
    val order = Array.range(0, points.length)
    // Sort indices by value; stable on ties so results are deterministic.
    val boxed = order.map(Integer.valueOf)
    java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => {
      val c = java.lang.Long.compare(values(a), values(b))
      if (c != 0) c else Integer.compare(a, b)
    })
    val coords = Array.ofDim[Long](d, points.length)
    var i = 0
    while (i < points.length) {
      val src = boxed(i).intValue
      var dim = 0
      while (dim < d) { coords(dim)(i) = points(src)(dim); dim += 1 }
      i += 1
    }
    new ClusteredIndex(coords, blockSize, d)
  }
}
