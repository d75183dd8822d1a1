package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the id of the enclosing span
  * (-1 at the top); spans of one benchmark pass share `pass`.
  */
final case class Span(id: Int, parent: Int, pass: Int, name: String, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs

  /** The layer (module) a span belongs to: the part of its name before
    * the first dot, e.g. "GlobalCost" for "GlobalCost.init".
    */
  def layer: String = name.takeWhile(_ != '.')
}

/** Records spans in memory while enabled; a disabled tracer only runs the
  * wrapped code, so untraced passes pay nothing but a branch.
  */
final class Tracer {
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var enabled = false
  private var pass = -1

  /** Record spans of pass `id` until [[stop]]. */
  def start(id: Int): Unit = { enabled = true; pass = id }
  def stop(): Unit = enabled = false
  def on: Boolean = enabled

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = spans.length
      spans += null // reserve the id; filled in when the span ends
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try f
      finally {
        spans(id) = Span(id, parent, pass, name, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  def all: Seq[Span] = spans.toSeq

  /** Spans of one pass. */
  def ofPass(id: Int): Seq[Span] = spans.iterator.filter(_.pass == id).toSeq
}

object Trace {

  /** Self time per span id: its duration minus the part of its interval
    * covered by its children (overlapping children count once).
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      for ((a, b) <- kids) {
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.durationNs - covered)
    }.toMap
  }

  /** Self time summed per layer. */
  def selfNanosByLayer(spans: Seq[Span]): Map[String, Long] = {
    val self = selfNanos(spans)
    spans.groupMapReduce(_.layer)(s => self(s.id))(_ + _)
  }

  /** Spans as a JSON array, one object per span. */
  def toJson(spans: Seq[Span]): String =
    spans.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"pass":${s.pass},"name":${Json.str(s.name)},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }.mkString("[\n", ",\n", "\n]\n")
}
