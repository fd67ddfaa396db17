package repro.graph

import repro.{Fixtures, SparkSpec}

/** The DataFrame frontier-expansion primitive behind the DataFrame substrate. Work
  * counting lives in the search core (`repro.core.BiSearchSpec`).
  */
class TraversalSpec extends SparkSpec {

  private lazy val sym =
    GraphOps.materialize(GraphOps.symmetric(Fixtures.fig4Df(spark)))

  test("neighborEdges returns the full neighbourhood of the frontier") {
    val got = Traversal.neighborEdges(sym, Seq(6L)).toSet
    assert(got === Set((6L, 1L), (6L, 5L), (6L, 7L)))
  }

  test("neighborEdges of an empty frontier is empty and free") {
    sym.count() // materialized before counting
    val (got, jobs) = jobsStartedBy(Traversal.neighborEdges(sym, Nil))
    assert(got.isEmpty)
    assert(jobs === 0)
    // control: a non-empty frontier is one join, so the count does see jobs
    assert(jobsStartedBy(Traversal.neighborEdges(sym, Seq(6L)))._2 > 0)
  }

  test("multi-vertex frontier unions neighbourhoods") {
    val got = Traversal.neighborEdges(sym, Seq(10L, 12L))
    assert(got.map(_._1).toSet === Set(10L, 12L))
    assert(got.map(_._2).toSet === Set(9L, 11L, 3L))
  }
}
