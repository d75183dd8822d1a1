package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assertThrows[IllegalArgumentException](Stats.median(Nil))
  }

  test("nearest-rank percentile") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 0.5) == 50.0)
    assert(Stats.percentile(xs, 0.9) == 90.0)
    assert(Stats.percentile(xs, 0.99) == 99.0)
    assert(Stats.percentile(xs, 1.0) == 100.0)
    assert(Stats.percentile(Seq(7.0), 0.9) == 7.0)
    assert(Stats.percentile((1 to 10).map(_.toDouble).reverse, 0.25) == 3.0)
  }

  test("per-unit fastest repetition over passes") {
    val byPass = Seq(Seq(3.0, 10.0), Seq(1.0, 30.0), Seq(2.0, 20.0))
    assert(Stats.perUnit(byPass) == Seq(1.0, 10.0))
    assert(Stats.perUnit(Seq(Seq(1.0))) == Seq(1.0))
    assertThrows[IllegalArgumentException](Stats.perUnit(Seq(Seq(1.0), Seq(1.0, 2.0))))
  }

  test("samples beyond a percentile") {
    assert(Stats.beyond(100, 0.9) == 10)
    assert(Stats.beyond(1600, 0.99) == 16)
    assert(Stats.beyond(99, 0.9) == 9)
  }

  test("tail level: the highest percentile with ten samples beyond it") {
    assert(Stats.tailLevel(99).isEmpty)
    assert(Stats.tailLevel(100).contains(0.9))
    assert(Stats.tailLevel(999).contains(0.9))
    assert(Stats.tailLevel(1000).contains(0.99))
    assert(Stats.tailLevel(1600).contains(0.99))
    assert(Stats.tailLevel(10000).contains(0.999))
    assert(Stats.tailLevel(200, minBeyond = 30).isEmpty)
  }

  test("ratios keep their base") {
    val r = Stats.Ratio(29.0, 2.0)
    assert(r.value == 14.5)
    assert((r + Stats.Ratio(1.0, 0.0)).base == 2.0)
    assert((r + Stats.Ratio(1.0, 2.0)).value == 7.5)
    assert(Stats.Ratio(3.0, 0.0).value.isNaN)
  }
}
