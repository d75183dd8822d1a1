package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, name: String, start: Long, end: Long) =
    Span(id, parent, pass = 1, name, start, end)

  test("self time subtracts the children") {
    val spans = Seq(
      span(0, -1, "LBMC.learn", 0, 100),
      span(1, 0, "WorkloadCost.eval", 10, 20),
      span(2, 0, "WorkloadCost.eval", 50, 80),
      span(3, 2, "GlobalCost.eval", 55, 60))
    val self = Trace.selfNanos(spans)
    assert(self == Map(0 -> 60L, 1 -> 10L, 2 -> 25L, 3 -> 5L))
    assert(Trace.selfNanosByLayer(spans) == Map("LBMC" -> 60L, "WorkloadCost" -> 35L, "GlobalCost" -> 5L))
  }

  test("overlapping children count once, clipped to the parent") {
    val spans = Seq(
      span(0, -1, "Read.count", 0, 100),
      span(1, 0, "Layout.a", 10, 40),
      span(2, 0, "Layout.b", 30, 50),
      span(3, 0, "Layout.c", 90, 120))
    assert(Trace.selfNanos(spans)(0) == 100 - 40 - 10)
  }

  test("self times add up to the root's duration") {
    val spans = Seq(
      span(0, -1, "A.x", 0, 1000),
      span(1, 0, "B.x", 100, 600),
      span(2, 1, "C.x", 200, 300),
      span(3, 1, "C.y", 300, 450),
      span(4, 0, "B.y", 700, 900))
    assert(Trace.selfNanos(spans).values.sum == 1000)
  }

  test("the tracer nests spans and tags them with the pass") {
    val tr = new Tracer
    assert(tr.span("A.off")(41) + 1 == 42)
    assert(tr.all.isEmpty)
    tr.start(7)
    tr.span("A.outer") { tr.span("B.inner")(()); tr.span("B.inner")(()) }
    tr.stop()
    tr.span("A.off")(())
    val spans = tr.all
    assert(spans.map(_.name) == Seq("A.outer", "B.inner", "B.inner"))
    assert(spans.map(_.parent) == Seq(-1, 0, 0))
    assert(spans.forall(_.pass == 7))
    assert(spans.forall(s => s.endNs >= s.startNs))
    assert(tr.ofPass(7) == spans && tr.ofPass(8).isEmpty)
  }

  test("a span ends even when its body throws") {
    val tr = new Tracer
    tr.start(1)
    assertThrows[IllegalStateException](tr.span("A.fails")(throw new IllegalStateException("x")))
    tr.span("A.next")(())
    assert(tr.all.map(_.parent) == Seq(-1, -1))
  }

  test("spans serialise as JSON objects") {
    val json = Trace.toJson(Seq(span(0, -1, "Read.\"q\"", 5, 9)))
    assert(json.contains("\"name\":\"Read.\\\"q\\\"\""))
    assert(json.contains(""""start_ns":5,"end_ns":9"""))
    assert(Json.num(3.0) == "3" && Json.num(0.25) == "0.25")
    assertThrows[IllegalArgumentException](Json.num(Double.NaN))
  }
}
