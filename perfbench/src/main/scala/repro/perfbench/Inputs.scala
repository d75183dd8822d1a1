package repro.perfbench

import java.util.Random
import repro.core.{Rect, SpatialGen}

/** The benchmark's inputs.
  *
  * The dataset is one fixed OSM-like map (`SpatialGen.osmLike` at
  * [[MapSeed]], the seed `LayoutJob` uses), as the paper evaluates on one
  * fixed OSM extract; a new seed would redraw the whole map, and with it
  * the density every query sees. `--seed` draws everything else: the
  * query workloads, centred on data points so they follow the data
  * distribution, the random candidate curves, and the learners' seeds.
  */
object Inputs {
  val MapSeed = 1L

  /** The first `n` points of the map, on the `2^bits` grid. */
  def osmPoints(n: Int, bits: Int): Array[Array[Long]] =
    SpatialGen.quantizeAll(SpatialGen.osmLike(n, MapSeed), bits)

  /** `n` queries of `wx × wy` cells centred on data points drawn with
    * `rng`, shifted inside the grid where they would cross its edge.
    */
  def rectsOnData(points: Array[Array[Long]], n: Int, wx: Long, wy: Long, bits: Int,
                  rng: Random): Array[Rect] = {
    val k = 1L << bits
    require(wx >= 1 && wy >= 1 && wx <= k && wy <= k, s"query $wx×$wy exceeds grid $k")
    def lo(c: Long, w: Long) = math.max(0L, math.min(c - w / 2, k - w))
    Array.fill(n) {
      val c = points(rng.nextInt(points.length))
      val x0 = lo(c(0), wx)
      val y0 = lo(c(1), wy)
      Rect.of2d(x0, x0 + wx - 1, y0, y0 + wy - 1)
    }
  }
}
