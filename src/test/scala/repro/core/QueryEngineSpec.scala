package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import scala.collection.mutable

/** The driver-local query engine's arrays, laid out from plain rows without Spark. */
class QueryEngineSpec extends AnyFunSuite {

  private lazy val engine = Fixtures.fig4Engine

  /** The edges a substrate yields for `frontier`, as vertex ids. */
  private def expanded(g: BiSearch.Graph, frontier: Set[Long]): Set[(Long, Long)] = {
    val vs = frontier.toArray.map(g.handle).filter(_ >= 0)
    val out = new BiSearch.Ints
    g.expand(vs, 0, vs.length, out)
    (0 until out.n by 2).map(i => (g.id(out.a(i)), g.id(out.a(i + 1)))).toSet
  }

  test("fig4: labels read back as Figure 4(c); landmarks and unknown ids have none") {
    for ((v, ls) <- Fixtures.fig4Labels) assert(engine.labelsOf(v) === ls.toMap, s"L($v)")
    for (v <- Fixtures.fig4Landmarks :+ 99L) assert(engine.labelsOf(v).isEmpty)
    assert(engine.labelEntries === Fixtures.fig4LabelRows.length && engine.deltaEntries === 4)
  }

  test("fig4: vertices and landmarks") {
    assert((1L to 14L).forall(engine.contains) && !engine.contains(0L) && !engine.contains(15L))
    assert((1L to 14L).filter(engine.isLandmark) === Fixtures.fig4Landmarks)
    assert(!engine.isLandmark(99L))
  }

  test("fig4: G expands full neighbourhoods; G⁻ skips landmarks") {
    assert(expanded(engine.graph, Set(6L)) === Set((6L, 1L), (6L, 5L), (6L, 7L)))
    assert(expanded(engine.sparsified, Set(6L)) === Set((6L, 5L), (6L, 7L)))
    assert(expanded(engine.sparsified, Set(1L, 99L)).isEmpty)
    assert(expanded(engine.graph, Set(10L, 12L)) ===
      Set((10L, 9L), (10L, 11L), (12L, 3L), (12L, 11L)))
  }

  test("fig4: label and Δ fetches") {
    val g = engine.sparsified
    def label(r: Long, w: Long) = g.label(g.handle(w), Fixtures.fig4Landmarks.indexOf(r))
    assert(Seq(label(1L, 4L), label(1L, 5L), label(1L, 8L), label(3L, 11L)) === Seq(1, 1, -1, 2))
    assert(Fixtures.fig4Landmarks.indices.map(k => g.id(g.landmark(k))) === Fixtures.fig4Landmarks)
    // Δ computed from the labels and meta-edges: (1,2) -> (1,2); (2,3) -> (2,3);
    // (1,3) -> {(1,4), (3,4)}
    assert((engine.delta(1L, 3L) ++ engine.delta(1L, 2L)).toSet ===
      Set((1L, 4L), (3L, 4L), (1L, 2L)))
    assert(engine.delta(3L, 2L).toList === List((2L, 3L)))
    assert(engine.delta(2L, 99L).isEmpty)
    // the substrate's Δ fetch: SPG(6, 11)'s sketch has all three meta-edges; SPG(8, 9)'s
    // goes through landmark 2 alone, so it has none
    val meta = new MetaGraph(Fixtures.fig4Landmarks, Fixtures.fig4MetaEdges.toSeq)
    def fetched(u: Long, v: Long) = {
      val out = new EdgeSet.Builder
      g.delta(engine.sketch(meta, u, v), out)
      out.result()
    }
    assert(fetched(6L, 11L) === Set((1L, 4L), (3L, 4L), (1L, 2L), (2L, 3L)))
    assert(fetched(8L, 9L).isEmpty)
  }

  test("label distances up to 254 round-trip through the byte encoding") {
    val e = QueryEngine(Seq(1L), Array((1L, 2L)), Array((2L, 1L, 254)), Nil)
    assert(e.labelsOf(2L) === Map(1L -> 254))
  }

  test("a label distance of 255 or more is rejected, naming the byte limit") {
    for (d <- Seq(255, 300)) {
      val e = intercept[IllegalArgumentException](
        QueryEngine(Seq(1L), Array((1L, 2L)), Array((2L, 1L, d)), Nil))
      assert(e.getMessage.contains("one-byte label encoding"), e.getMessage)
      assert(e.getMessage.contains("below 255"), e.getMessage)
    }
  }

  test("labels of non-vertices or for non-landmarks are rejected") {
    intercept[IllegalArgumentException](
      QueryEngine(Seq(1L), Array((1L, 2L)), Array((7L, 1L, 1)), Nil))
    intercept[IllegalArgumentException](
      QueryEngine(Seq(1L), Array((1L, 2L)), Array((2L, 5L, 1)), Nil))
  }
}
