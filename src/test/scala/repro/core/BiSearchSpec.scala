package repro.core

import repro.{Fixtures, SparkSpec}
import repro.graph.{GraphOps, Traversal}

/** The shared bidirectional search core, on both substrates. */
class BiSearchSpec extends SparkSpec {

  private lazy val fig4Sym =
    GraphOps.materialize(GraphOps.symmetric(Fixtures.fig4Df(spark)))
  private lazy val fig4Engine =
    QueryEngine(Fixtures.fig4Landmarks, Fixtures.fig4Edges.toArray, Array.empty, Array.empty)
  private def substrates: Seq[(String, Traversal.Graph)] =
    Seq("DataFrame" -> new Traversal.Frames(fig4Sym), "arrays" -> fig4Engine.graph)

  test("walk-back collects exactly the BFS-DAG edges toward the root") {
    val depth = Fixtures.fig4Local.bfs(6L)
    // from {9} at depth 3 (6-7-8-9 and 6-1-2-9): both length-3 routes
    assert(depth(9L) === 3)
    for ((name, g) <- substrates) {
      val edges = BiSearch.walkBack(g, Seq((Set(9L), 3, depth)), new BiSearch.Counters)
      assert(edges === Set((8L, 9L), (7L, 8L), (6L, 7L), (2L, 9L), (1L, 2L), (1L, 6L)), name)
    }
  }

  test("counters: one level per non-empty expansion, one edge per pair it yields") {
    val depth = Fixtures.fig4Local.bfs(6L)
    for ((name, g) <- substrates) {
      val c = new BiSearch.Counters
      BiSearch.walkBack(g, Seq((Set(9L), 3, depth)), c)
      // expansions of {9}, {8, 2} and {7, 1}: degrees 3, 3 + 4 and 2 + 4
      assert((c.levels, c.edgesTraversed) === ((3, 16L)), name)
      val idle = new BiSearch.Counters
      assert(BiSearch.walkBack(g, Seq((Set.empty[Long], 3, depth), (Set(6L), 0, depth)),
        idle).isEmpty, name)
      assert((idle.levels, idle.edgesTraversed) === ((0, 0L)), name)
    }
  }

  test("Bi-BFS instance: same answer and work on both substrates") {
    val g = Fixtures.fig4Local
    for ((u, v) <- Seq((6L, 11L), (4L, 10L), (1L, 12L), (9L, 9L))) {
      val Seq(df, arrays) = substrates.map { case (_, s) =>
        BiSearch.bibfs(s, u, v).copy(millis = 0) }
      assert(arrays === df, s"pair ($u,$v)")
      assert(arrays.edges === g.spg(u, v) && arrays.distance === g.distance(u, v))
    }
  }
}
