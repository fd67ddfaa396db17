package repro.core

import repro.{Fixtures, SparkSpec}
import repro.graph.GraphOps

/** The shared bidirectional search core on dense handles, on both substrates. */
class BiSearchSpec extends SparkSpec {

  private lazy val fig4Sym =
    GraphOps.materialize(GraphOps.symmetric(Fixtures.fig4Df(spark)))
  private def substrates: Seq[(String, BiSearch.Graph)] =
    Seq("DataFrame" -> new GuidedSearch.Frames(fig4Sym), "arrays" -> Fixtures.fig4Engine.graph)

  /** Loads `depth` (BFS depths from its one depth-0 vertex) into side `u` of `g`'s
    * scratch, adds a walk from each `(members, level)` down those depths and runs the
    * walk-back; returns the edges it found and its counters.
    */
  private def walkBack(g: BiSearch.Graph, depth: Map[Long, Int],
                       walks: Seq[(Set[Long], Int)]): (Set[(Long, Long)], BiSearch.Counters) = {
    val h = depth.keys.map(v => v -> g.handle(v)).toMap // interned before sizing the scratch
    val root = h(depth.collectFirst { case (v, 0) => v }.get)
    val scr = g.scratch
    scr.begin(g, root, root)
    for ((v, d) <- depth if d > 0) scr.u.visit(h(v), d)
    for ((members, level) <- walks) {
      val start = scr.walks.n
      members.foreach(v => scr.walks += h(v))
      scr.addWalk(start, level, side = 0)
    }
    val c = new BiSearch.Counters
    BiSearch.walkBack(g, scr, c)
    (scr.edgeSet(g), c)
  }

  test("walk-back collects exactly the BFS-DAG edges toward the root") {
    val depth = Fixtures.fig4Local.bfs(6L)
    // from {9} at depth 3 (6-7-8-9 and 6-1-2-9): both length-3 routes
    assert(depth(9L) === 3)
    for ((name, g) <- substrates) {
      val (edges, _) = walkBack(g, depth, Seq((Set(9L), 3)))
      assert(edges === Set((8L, 9L), (7L, 8L), (6L, 7L), (2L, 9L), (1L, 2L), (1L, 6L)), name)
    }
  }

  test("counters: one level per non-empty expansion, one edge per pair it yields") {
    val depth = Fixtures.fig4Local.bfs(6L)
    for ((name, g) <- substrates) {
      val (_, c) = walkBack(g, depth, Seq((Set(9L), 3)))
      // expansions of {9}, {8, 2} and {7, 1}: degrees 3, 3 + 4 and 2 + 4
      assert((c.levels, c.edgesTraversed) === ((3, 16L)), name)
      // a walk already at the root is dropped, so its set is never expanded
      val (_, withDead) = walkBack(g, depth, Seq((Set(9L), 3), (Set(6L), 0)))
      assert((withDead.levels, withDead.edgesTraversed) === ((3, 16L)), name)
      val (edges, idle) = walkBack(g, depth, Seq((Set.empty[Long], 3), (Set(6L), 0)))
      assert(edges.isEmpty, name)
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
