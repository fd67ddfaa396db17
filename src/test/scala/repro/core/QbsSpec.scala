package repro.core

import org.apache.spark.sql.functions.col
import repro.{Fixtures, SparkSpec}
import repro.baselines.BiBfs
import repro.graph.{GraphOps, GraphOracle, LocalGraph}

/** End-to-end QbS (labelling + sketching + guided search) against the paper's
  * worked example, the in-Spark ground truth, and the DuckDB oracle.
  */
class QbsSpec extends SparkSpec {

  private lazy val fig4 = Fixtures.fig4Df(spark).cache()
  private lazy val index: QbS.Index = {
    // fig4's top-3-degree vertices are exactly the paper's landmarks {1, 2, 3}
    val idx = QbS.build(spark, fig4, numLandmarks = 3)
    assert(idx.landmarks.toSet === Fixtures.fig4Landmarks.toSet)
    idx
  }

  test("fig4: QbS answers SPG(6,11) with exactly Figure 6(f)") {
    val a = QbS.query(index, 6L, 11L)
    assert(a.edges === Fixtures.fig4Spg611)
    assert(a.distance === Some(5))
    assert(a.usedReverse, "d_G⁻(6,11) = d⊤ = 5: the reverse search must run")
    assert(a.usedRecover, "d_G⁻(6,11) = d⊤ = 5: the recover search must run")
  }

  test("fig4: SPG(6,11) matches the DuckDB recursive oracle") {
    val a = QbS.query(index, 6L, 11L)
    GraphOracle.assertSpg(fig4, 6L, 11L, QbS.toDf(spark, a))
  }

  test("fig4: QbS equals the reference SPG for every non-landmark pair") {
    val g = Fixtures.fig4Local
    val nonLm = (4L to 14L)
    for (u <- nonLm; v <- nonLm if u < v) {
      val a = QbS.query(index, u, v)
      assert(a.edges === g.spg(u, v), s"pair ($u,$v)")
      assert(a.distance === g.distance(u, v), s"distance ($u,$v)")
    }
  }

  test("fig4: landmark endpoints fall back to the exact answer") {
    val g = Fixtures.fig4Local
    for ((u, v) <- Seq((1L, 11L), (2L, 13L), (3L, 6L), (1L, 2L))) {
      val a = QbS.query(index, u, v)
      assert(a.edges === g.spg(u, v), s"pair ($u,$v)")
    }
  }

  test("fig4: SPG(u,u) is empty with distance 0") {
    val a = QbS.query(index, 7L, 7L)
    assert(a.edges.isEmpty && a.distance === Some(0))
  }

  test("fig4: adjacent non-landmark pair returns the single edge") {
    val a = QbS.query(index, 8L, 9L)
    assert(a.edges === Set((8L, 9L)))
    assert(a.distance === Some(1))
  }

  test("fig4: pure-G⁻ answer skips the recover search when d_G⁻ < d⊤") {
    // 8 and 9 are adjacent in G⁻; any landmark route is ≥ 2
    val a = QbS.query(index, 8L, 9L)
    assert(a.usedReverse && !a.usedRecover)
  }

  test("fig4: all-through-landmark answer skips the reverse search") {
    // 5 and 12: in G⁻ (drop 1,2,3) the route 5-14-13 dies (13-12 not an edge):
    // d_G⁻(5,12) = 5-14-13? no — check: 5-14,14-13 and 13,12 not adjacent.
    val g = Fixtures.fig4Local
    val a = QbS.query(index, 5L, 12L)
    assert(a.edges === g.spg(5L, 12L))
  }

  test("QbS.coverage classifies answers") {
    assert(QbS.coverage(QbS.query(index, 6L, 11L)) === "some") // meets at 8 AND via landmarks
    assert(QbS.coverage(QbS.query(index, 8L, 9L)) === "none")  // adjacent in G⁻
    assert(QbS.coverage(QbS.query(index, 5L, 12L)) === "all")  // only through landmarks
  }

  test("index: label entry count equals the paper's table (16 entries)") {
    assert(index.labelEntries === Fixtures.fig4Labels.valuesIterator.map(_.size).sum)
  }

  test("index: Δ has 4 rows on fig4") {
    // (1,2)->(1,2); (2,3)->(2,3); (1,3)->{(1,4),(3,4)}
    assert(index.deltaEntries === 4)
  }

  test("disconnected components: empty answer, no distance") {
    val df = GraphOps.fromPairs(spark,
      Seq((1L, 2L), (2L, 3L), (3L, 1L), (10L, 11L), (11L, 12L), (12L, 10L)))
    val idx = QbS.build(spark, df, numLandmarks = 2)
    val (u, v) = {
      val nonLm = Seq(1L, 2L, 3L, 10L, 11L, 12L).filterNot(idx.landmarks.contains)
      // pick one non-landmark from each triangle
      (nonLm.find(_ <= 3L).get, nonLm.find(_ >= 10L).get)
    }
    val a = QbS.query(idx, u, v)
    assert(a.edges.isEmpty && a.distance === None)
  }

  test("unknown ids: empty answer and no distance, without a search") {
    for ((u, v) <- Seq((6L, 99L), (99L, 6L), (1L, 99L), (98L, 99L))) {
      val a = QbS.query(index, u, v)
      assert(a.edges.isEmpty && a.distance === None, s"pair ($u,$v)")
      assert(a.levels === 0 && a.edgesTraversed === 0, s"pair ($u,$v)")
    }
    val same = QbS.query(index, 99L, 99L)
    assert(same.edges.isEmpty && same.distance === Some(0))
  }

  test("no level cap: a 70-hop G⁻ path on a 300-cycle with one hub landmark") {
    // The hub hangs off vertex 0 (plus leaves that make it the top-degree vertex), so
    // d⊤(100, 170) = 101 + 131 = 232 while the cycle path has 70 hops. Stage 1 must
    // search past 64 levels to find it.
    val cycle = (0L until 300L).map(i => (i, (i + 1) % 300))
    val hub = (1001L to 1005L).map(leaf => (1000L, leaf)) :+ ((0L, 1000L))
    val local = LocalGraph((cycle ++ hub).toArray)
    val df = GraphOps.materialize(GraphOps.fromPairs(spark, cycle ++ hub))
    val idx = QbS.build(spark, df, numLandmarks = 1)
    assert(idx.landmarks === Seq(1000L))
    val (u, v) = (100L, 170L)
    val truth = (100L until 170L).map(i => (i, i + 1)).toSet
    assert(local.spg(u, v) === truth && local.distance(u, v) === Some(70))

    val a = QbS.query(idx, u, v)
    assert(a.distance === Some(70) && a.edges === truth)
    val lab = idx.labels.filter(col("v").isin(u, v)).select("v", "lm", "dist").collect()
    def labelsOf(x: Long) = lab.filter(_.getLong(0) == x).map(r => r.getLong(1) -> r.getInt(2)).toMap
    val sketch = Sketch.compute(idx.meta, u, v, labelsOf(u), labelsOf(v))
    assert(sketch.dTop === Some(232))
    val frames = GuidedSearch.run(idx.gMinusSym, idx.labels, idx.delta, sketch)
    assert(frames.distance === Some(70) && frames.edges === truth)

    val gSym = GraphOps.materialize(GraphOps.symmetric(df))
    for (r <- Seq(BiBfs.spg(idx.engine.graph, u, v), BiBfs.spg(gSym, u, v)))
      assert(r.distance === Some(70) && r.edges === truth)
    Seq(gSym, df, idx.labels, idx.delta, idx.gMinusSym).foreach(_.unpersist())
  }

  for (seed <- 1L to 4L; nLm <- Seq(2, 5)) {
    test(s"random graph seed=$seed |R|=$nLm: QbS equals the reference") {
      val local = Fixtures.randomLocal(70, 2, seed)
      val df = GraphOps.fromPairs(spark, local.edges.toSeq).cache()
      val idx = QbS.build(spark, df, numLandmarks = nLm)
      val rnd = new scala.util.Random(seed * 31)
      val nonLm = local.vertices.filterNot(idx.landmarks.contains)
      for (_ <- 1 to 4) {
        val u = nonLm(rnd.nextInt(nonLm.length))
        val v = nonLm(rnd.nextInt(nonLm.length))
        val a = QbS.query(idx, u, v)
        assert(a.edges === local.spg(u, v), s"pair ($u,$v)")
        assert(a.distance === local.distance(u, v), s"distance ($u,$v)")
      }
      df.unpersist()
    }
  }

  test("dataset analog (Douban tier): QbS equals the reference on sampled pairs") {
    val spec = repro.graph.Generators.datasets(0.04).head
    val local = repro.graph.LocalGraph(repro.graph.Generators.localEdges(spec))
    val df = GraphOps.fromPairs(spark, local.edges.toSeq).cache()
    val idx = QbS.build(spark, df, numLandmarks = 8)
    val rnd = new scala.util.Random(7)
    val nonLm = local.vertices.filterNot(idx.landmarks.contains)
    for (_ <- 1 to 5) {
      val u = nonLm(rnd.nextInt(nonLm.length))
      val v = nonLm(rnd.nextInt(nonLm.length))
      val a = QbS.query(idx, u, v)
      assert(a.edges === local.spg(u, v), s"pair ($u,$v)")
    }
    df.unpersist()
  }
}
