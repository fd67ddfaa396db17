package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.QueryEngine
import repro.graph.{Generators, GraphOps, LocalGraph}

/** Shared test fixtures: the paper's worked-example graphs, reconstructed from the
  * label tables and examples in the text, plus helpers for random graphs.
  */
object Fixtures {

  /** Figure 3(a): the 7-vertex graph of the PPL examples (Examples 3.1–3.4).
    * Reconstructed from the label table of Figure 3(b) — every distance implied by
    * the table is consistent with exactly this edge set.
    */
  val fig3Edges: Seq[(Long, Long)] = Seq(
    (1L, 2L), (1L, 3L), (2L, 4L), (3L, 4L), (2L, 5L), (2L, 6L), (5L, 6L), (5L, 7L))

  /** Figure 3(b): the full PPL (2-hop path cover) labels under landmark order
    * 1,2,…,7 — black (distance cover) plus green (path cover) entries.
    */
  val fig3Labels: Map[Long, Set[(Long, Int)]] = Map(
    1L -> Set((1L, 0), (2L, 1), (3L, 1)),
    2L -> Set((1L, 1), (2L, 0), (3L, 2), (4L, 1), (5L, 1), (6L, 1)),
    3L -> Set((1L, 1), (2L, 2), (3L, 0), (4L, 1)),
    4L -> Set((1L, 2), (2L, 1), (3L, 1), (4L, 0)),
    5L -> Set((1L, 2), (2L, 1), (5L, 0), (6L, 1), (7L, 1)),
    6L -> Set((1L, 2), (2L, 1), (5L, 1), (6L, 0)),
    7L -> Set((1L, 3), (2L, 2), (5L, 1), (7L, 0)))

  /** The answer of SPG(3, 7) on the Figure-3 graph (colored green in the paper). */
  val fig3Spg37: Set[(Long, Long)] =
    Set((1L, 3L), (1L, 2L), (3L, 4L), (2L, 4L), (2L, 5L), (5L, 7L))

  /** Figures 4–6: the 14-vertex graph with landmarks {1, 2, 3}. Reconstructed from
    * the label table (Fig. 4c), the meta-graph (Fig. 4b: σ(1,2)=1, σ(2,3)=1,
    * σ(1,3)=2 via vertex 4) and Example 4.8's search trace; all of those artifacts
    * are reproduced exactly by this edge set.
    */
  val fig4Edges: Seq[(Long, Long)] = Seq(
    (1L, 2L), (2L, 3L), (1L, 4L), (3L, 4L), (1L, 5L), (1L, 6L), (2L, 8L), (2L, 9L),
    (3L, 12L), (3L, 13L), (5L, 14L), (13L, 14L), (5L, 6L), (6L, 7L), (7L, 8L),
    (8L, 9L), (9L, 10L), (10L, 11L), (11L, 12L))

  val fig4Landmarks: Seq[Long] = Seq(1L, 2L, 3L)

  /** Figure 4(c): the QbS path labelling. */
  val fig4Labels: Map[Long, Set[(Long, Int)]] = Map(
    4L  -> Set((1L, 1), (3L, 1)),
    5L  -> Set((1L, 1), (3L, 3)),
    6L  -> Set((1L, 1)),
    7L  -> Set((1L, 2), (2L, 2)),
    8L  -> Set((2L, 1)),
    9L  -> Set((2L, 1)),
    10L -> Set((2L, 2), (3L, 3)),
    11L -> Set((2L, 3), (3L, 2)),
    12L -> Set((3L, 1)),
    13L -> Set((1L, 3), (3L, 1)),
    14L -> Set((1L, 2), (3L, 2)))

  /** Figure 4(c) as `(v, lm, dist)` rows. */
  val fig4LabelRows: Array[(Long, Long, Int)] =
    fig4Labels.toArray.flatMap { case (v, ls) => ls.map { case (r, d) => (v, r, d) } }

  /** Figure 4(b): meta-graph edges with weights. */
  val fig4MetaEdges: Set[(Long, Long, Int)] = Set((1L, 2L, 1), (2L, 3L, 1), (1L, 3L, 2))

  /** The Figure-4 index laid out as a query engine, without Spark. */
  lazy val fig4Engine: QueryEngine =
    QueryEngine(fig4Landmarks, fig4Edges.toArray, fig4LabelRows, fig4MetaEdges.toSeq)

  /** Figure 6(f): the answer of SPG(6, 11). */
  val fig4Spg611: Set[(Long, Long)] = Set(
    (1L, 6L), (1L, 2L), (2L, 9L), (9L, 10L), (10L, 11L), (1L, 4L), (3L, 4L),
    (2L, 3L), (3L, 12L), (11L, 12L), (6L, 7L), (7L, 8L), (8L, 9L))

  def fig3Df(spark: SparkSession): DataFrame = GraphOps.fromPairs(spark, fig3Edges)
  def fig4Df(spark: SparkSession): DataFrame = GraphOps.fromPairs(spark, fig4Edges)
  def fig3Local: LocalGraph = LocalGraph(fig3Edges.toArray)
  def fig4Local: LocalGraph = LocalGraph(fig4Edges.toArray)

  /** A small seeded random connected graph as (driver pairs, LocalGraph). */
  def randomLocal(n: Int, k: Int, seed: Long): LocalGraph =
    LocalGraph(Generators.localEdges(Generators.randomSpec(n, k, seed)))

  /** Def. 4.2 by brute force: the labels `(v, r, δ_vr)` and the canonical meta-edges
    * `(r, r', σ)` that `landmarks` give on `g`, from [[LocalGraph.landmarkFreeDistance]].
    */
  def def42(g: LocalGraph, landmarks: Seq[Long]): (Set[(Long, Long, Int)], Set[(Long, Long, Int)]) = {
    val lmSet = landmarks.toSet
    val labels = for {
      v <- g.vertices.toSeq if !lmSet.contains(v)
      r <- landmarks
      d <- g.landmarkFreeDistance(v, r, lmSet)
    } yield (v, r, d)
    val metaEdges = for {
      r <- landmarks; rp <- landmarks if r < rp
      d <- g.landmarkFreeDistance(r, rp, lmSet)
    } yield (r, rp, d)
    (labels.toSet, metaEdges.toSet)
  }

  /** The PPL/ParentPPL soundness contract (see `Ppl`'s class doc): every returned
    * edge lies on a true shortest path, the distance is exact, and the returned edge
    * set still realizes at least one full shortest `u`–`v` path.
    */
  def assertSoundSpg(g: LocalGraph, u: Long, v: Long,
                     got: Set[(Long, Long)], gotDistance: Option[Int]): Unit = {
    val expected = g.spg(u, v)
    val trueDist = g.distance(u, v)
    assert(got.subsetOf(expected), s"($u,$v): extra edges ${got.diff(expected)}")
    assert(gotDistance == trueDist, s"($u,$v): distance $gotDistance vs $trueDist")
    if (expected.nonEmpty) {
      val sub = LocalGraph(got.toArray)
      assert(sub.distance(u, v) == trueDist,
        s"($u,$v): answer does not contain a full shortest path")
    }
  }
}
