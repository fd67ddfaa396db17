package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{Fixtures, SparkSpec}
import repro.baselines.BiBfs
import repro.graph.{GraphOps, LocalGraph}

/** Cross-substrate differential: the search core on the engine's arrays and on the
  * index's DataFrames must give identical results, counters included (only `millis`
  * may differ). `QbS.query` runs on the arrays and starts no Spark job.
  */
class SubstrateSpec extends SparkSpec {

  private lazy val fig4 = GraphOps.materialize(Fixtures.fig4Df(spark))
  private lazy val fig4Index = QbS.build(spark, fig4, numLandmarks = 3)

  /** `L(v)` fetched from the label DataFrame, as the decomposed query does. */
  private def dfLabels(index: QbS.Index, v: Long): Map[Long, Int] =
    index.labels.filter(col("v") === v).select("lm", "dist").collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap

  private def assertSameOnBoth(index: QbS.Index, gSym: DataFrame, local: LocalGraph,
                               u: Long, v: Long): Unit = {
    val e = index.engine
    if (!e.isLandmark(u) && !e.isLandmark(v)) {
      val (lu, lv) = (e.labelsOf(u), e.labelsOf(v))
      assert((lu, lv) === ((dfLabels(index, u), dfLabels(index, v))), s"labels ($u,$v)")
      val sketch = Sketch.compute(index.meta, u, v, lu, lv)
      val arrays = BiSearch.guided(e.sparsified, sketch).copy(millis = 0)
      val frames = GuidedSearch.run(index.gMinusSym, index.labels, index.delta, sketch)
      assert(arrays === frames.copy(millis = 0), s"guided ($u,$v)")
      val q = QbS.query(index, u, v)
      assert(arrays === GuidedSearch.Result(q.edges, q.distance, q.usedReverse,
        q.usedRecover, q.levels, q.edgesTraversed, 0), s"QbS.query ($u,$v)")
      assert(q.edges === local.spg(u, v) && q.distance === local.distance(u, v))
    }
    val bibfs = BiBfs.spg(e.graph, u, v).copy(millis = 0)
    assert(bibfs === BiBfs.spg(gSym, u, v).copy(millis = 0), s"Bi-BFS ($u,$v)")
    assert(bibfs.edges === local.spg(u, v) && bibfs.distance === local.distance(u, v))
  }

  test("fig4: every non-landmark pair gives identical results on both substrates") {
    val gSym = GraphOps.materialize(GraphOps.symmetric(fig4))
    for (u <- 4L to 14L; v <- 4L to 14L if u < v)
      assertSameOnBoth(fig4Index, gSym, Fixtures.fig4Local, u, v)
    gSym.unpersist()
  }

  for (seed <- Seq(5L, 6L)) {
    test(s"random graph seed=$seed: sampled pairs give identical results on both substrates") {
      val local = Fixtures.randomLocal(70, 2, seed)
      val df = GraphOps.materialize(GraphOps.fromPairs(spark, local.edges.toSeq))
      val gSym = GraphOps.materialize(GraphOps.symmetric(df))
      val index = QbS.build(spark, df, numLandmarks = 5)
      val rnd = new scala.util.Random(seed)
      val vs = local.vertices
      for (_ <- 1 to 6)
        assertSameOnBoth(index, gSym, local, vs(rnd.nextInt(vs.length)), vs(rnd.nextInt(vs.length)))
      Seq(gSym, df, index.labels, index.delta, index.gMinusSym).foreach(_.unpersist())
    }
  }

  test("QbS.query starts no Spark job: ordinary pairs, landmark endpoints and u == v") {
    val pairs = Seq((6L, 11L), (5L, 12L), (8L, 9L), (1L, 11L), (2L, 13L), (1L, 3L),
      (7L, 7L), (2L, 2L))
    val engine = fig4Index.engine // built by QbS.build
    val (answers, jobs) = jobsStartedBy(pairs.map { case (u, v) => QbS.query(fig4Index, u, v) })
    assert(jobs === 0)
    for (((u, v), a) <- pairs.zip(answers)) {
      assert(a.edges === Fixtures.fig4Local.spg(u, v), s"pair ($u,$v)")
      assert(a.distance === (if (u == v) Some(0) else Fixtures.fig4Local.distance(u, v)))
    }
    assert(engine eq fig4Index.engine)
  }
}
