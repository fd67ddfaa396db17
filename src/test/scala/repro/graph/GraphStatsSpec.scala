package repro.graph

import repro.{Fixtures, SparkSpec}

/** Table-1 statistics module. */
class GraphStatsSpec extends SparkSpec {

  private lazy val fig4 = Fixtures.fig4Df(spark).cache()
  private lazy val stats = GraphStats.compute(fig4, distSources = 4, distSamplePairs = 50)

  test("vertex and edge counts") {
    assert(stats.numV === 14)
    assert(stats.numE === 19)
  }

  test("max and average degree") {
    val g = Fixtures.fig4Local
    assert(stats.maxDeg === g.vertices.map(g.degree).max)
    assert(math.abs(stats.avgDeg - 2.0 * 19 / 14) < 1e-9)
  }

  test("size follows the paper's 8-bytes-per-adjacency-entry convention") {
    assert(stats.bytes === 19L * 2 * 8)
  }

  test("average distance is within the graph's diameter") {
    assert(stats.avgDist > 1.0 && stats.avgDist <= 7.0)
  }

  test("stats are deterministic in the seed") {
    val a = GraphStats.compute(fig4, seed = 3, distSources = 3, distSamplePairs = 30)
    val b = GraphStats.compute(fig4, seed = 3, distSources = 3, distSamplePairs = 30)
    assert(a === b)
  }
}
