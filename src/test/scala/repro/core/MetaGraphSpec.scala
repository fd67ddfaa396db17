package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures

/** Driver-side meta-graph APSP and M-level shortest-path-graphs. */
class MetaGraphSpec extends AnyFunSuite {

  private val fig4Meta =
    new MetaGraph(Fixtures.fig4Landmarks, Fixtures.fig4MetaEdges.toSeq)

  test("fig4: pairwise distances d_M") {
    assert(fig4Meta.distance(1L, 2L) === Some(1))
    assert(fig4Meta.distance(2L, 3L) === Some(1))
    assert(fig4Meta.distance(1L, 3L) === Some(2))
    assert(fig4Meta.distance(1L, 1L) === Some(0))
  }

  test("fig4: M-SPG of (1,3) contains both the direct edge and the 2-hop path") {
    assert(fig4Meta.spgEdges(1L, 3L).toSet ===
      Set((1L, 2L), (2L, 3L), (1L, 3L)))
  }

  test("fig4: M-SPG of (1,2) is the direct edge only") {
    assert(fig4Meta.spgEdges(1L, 2L).toSet === Set((1L, 2L)))
  }

  test("sigma returns the raw edge weight") {
    assert(fig4Meta.edges.toSet === Fixtures.fig4MetaEdges)
    // edges are canonical and keep σ, not the shorter d_M
    val m = new MetaGraph(Seq(1L, 2L, 3L), Seq((1L, 2L, 1), (2L, 3L, 1), (3L, 1L, 5)))
    assert(m.edges.toSet === Set((1L, 2L, 1), (2L, 3L, 1), (1L, 3L, 5)))
    assert(m.distance(1L, 3L) === Some(2))
  }

  test("weighted shortcut wins over heavier direct edge") {
    // edges: (1,2,w=1), (2,3,w=1), (1,3,w=5) -> d(1,3) = 2 through 2
    val m = new MetaGraph(Seq(1L, 2L, 3L),
      Seq((1L, 2L, 1), (2L, 3L, 1), (1L, 3L, 5)))
    assert(m.distance(1L, 3L) === Some(2))
    assert(m.spgEdges(1L, 3L).toSet === Set((1L, 2L), (2L, 3L)))
  }

  test("disconnected meta-graph yields None distances") {
    val m = new MetaGraph(Seq(1L, 2L, 3L, 4L), Seq((1L, 2L, 1), (3L, 4L, 2)))
    assert(m.distance(1L, 3L) === None)
    assert(m.spgEdges(1L, 4L).isEmpty)
  }

  test("unknown landmarks yield None") {
    assert(fig4Meta.distance(1L, 99L) === None)
  }

  test("equal-length parallel paths all appear in the M-SPG") {
    val m = new MetaGraph(Seq(1L, 2L, 3L, 4L),
      Seq((1L, 2L, 1), (2L, 4L, 1), (1L, 3L, 1), (3L, 4L, 1)))
    assert(m.spgEdges(1L, 4L).toSet ===
      Set((1L, 2L), (2L, 4L), (1L, 3L), (3L, 4L)))
  }
}
