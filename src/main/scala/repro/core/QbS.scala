package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.graph.GraphOps

/** Query-by-Sketch, end to end: offline index construction (labelling + meta-graph +
  * `Δ` + sparsified graph) and online query answering (sketch + guided search).
  */
object QbS {

  /** The offline-built QbS index. Queries run on its [[Index.engine]]; the DataFrames
    * are the substrate of [[GuidedSearch.run]] and `BiBfs.spg(DataFrame, …)`. Only
    * `edges` is cached: the others are views that no query on the engine reads.
    *
    * @param labels     `(v, lm, dist)` path labelling `L`, a view over the label matrix
    * @param meta       driver-side meta-graph with APSP (§5.2 precomputation)
    * @param delta      `(r, rp, src, dst)` landmark-pair SPG segments `Δ`, a view over
    *                   driver-side rows
    * @param gMinusSym  symmetric edges of `G⁻ = G[V \ R]`, a plan over `edges`
    * @param edges      cached canonical edges of `G`
    */
  final case class Index(landmarks: Seq[Long], labels: DataFrame, meta: MetaGraph,
                         delta: DataFrame, gMinusSym: DataFrame, edges: DataFrame,
                         labelEntries: Long, deltaEntries: Long, buildMillis: Double) {

    /** The index collected into the driver-local [[QueryEngine]] that [[query]] runs
      * on. [[assemble]] builds it eagerly; an `Index` constructed from its fields
      * collects it on first use.
      */
    lazy val engine: QueryEngine = prebuilt.getOrElse(
      QueryEngine.collect(landmarks, edges, labels, delta))
    private[core] var prebuilt: Option[QueryEngine] = None
  }

  /** Result of one `SPG(u, v)` query: canonical edge set plus diagnostics. */
  final case class Answer(u: Long, v: Long, edges: Set[(Long, Long)],
                          distance: Option[Int], usedReverse: Boolean,
                          usedRecover: Boolean, levels: Int, edgesTraversed: Long,
                          millis: Double)

  /** Build the index.
    *
    * @param numLandmarks `|R|` (paper default 20), picked by descending degree
    * @param parallel     multi-source labelling (QbS-P) vs per-landmark (QbS)
    */
  def build(spark: SparkSession, canonicalEdges: DataFrame, numLandmarks: Int = 20,
            parallel: Boolean = true): Index = {
    val t0 = System.nanoTime()
    val landmarks = GraphOps.topDegreeLandmarks(canonicalEdges, numLandmarks)
    val lab = Labelling.run(spark, canonicalEdges, landmarks, parallel)
    assemble(spark, canonicalEdges, lab, t0)
  }

  /** Assemble the index around an already-computed labelling (lets benches time the
    * labelling phase separately from the shared Δ/sparsify/cache phase). One Spark job
    * caches and collects the edges; the query engine is laid out around the labelling's
    * matrix, `Δ` computed from it, and its arrays give the label and Δ counts.
    */
  def assemble(spark: SparkSession, canonicalEdges: DataFrame,
               lab: Labelling.Result, t0: Long = System.nanoTime()): Index = {
    val landmarks = lab.landmarks
    val meta = new MetaGraph(landmarks, lab.metaEdges)
    val cached = canonicalEdges.persist(StorageLevel.MEMORY_AND_DISK)
    val engine = QueryEngine(lab, QueryEngine.edgesOf(cached))
    val gMinusSym = GraphOps.symmetric(GraphOps.sparsify(cached, landmarks))
    val index = Index(landmarks, lab.labels, meta, engine.deltaDf(spark), gMinusSym,
      cached, engine.labelEntries, engine.deltaEntries,
      buildMillis = (System.nanoTime() - t0) / 1e6)
    index.prebuilt = Some(engine)
    index
  }

  /** Answer `SPG(u, v)` on the index's [[QueryEngine]], without any Spark job.
    *
    *  - `u == v`: no edges, distance 0 (whether or not `u` is a vertex).
    *  - An id that is not a vertex of `G`: no edges, distance None, and no search.
    *  - A landmark endpoint: Def. 4.2 labels only `V \ R`, so the pair is answered by
    *    the Bi-BFS instance of the search core on the full `G` (reported as
    *    coverage "all": every shortest path contains the landmark endpoint).
    *  - Otherwise: labels, sketch (Algorithm 3) and guided search (Algorithm 4) on
    *    `G⁻`.
    */
  def query(index: Index, u: Long, v: Long): Answer = {
    val t0 = System.nanoTime()
    val e = index.engine
    val res =
      if (u == v || !e.contains(u) || !e.contains(v))
        GuidedSearch.Result(Set.empty, if (u == v) Some(0) else None,
          usedReverse = false, usedRecover = false, 0, 0, 0)
      else if (e.isLandmark(u) || e.isLandmark(v))
        BiSearch.bibfs(e.graph, u, v).copy(usedReverse = false, usedRecover = true)
      else
        BiSearch.guided(e.sparsified,
          Sketch.compute(index.meta, u, v, e.labelsOf(u), e.labelsOf(v)))
    Answer(u, v, res.edges, res.distance, res.usedReverse, res.usedRecover,
      res.levels, res.edgesTraversed, (System.nanoTime() - t0) / 1e6)
  }

  /** Figure-8-style pair-coverage class of an answer: do all, some, or none of the
    * shortest paths between the pair go through a landmark? Derived from which
    * guided-search stages contributed edges (Eq. 5).
    */
  def coverage(a: Answer): String = (a.usedReverse, a.usedRecover) match {
    case (false, true) => "all"
    case (true, true)  => "some"
    case _             => "none"
  }

  /** Canonical-edge DataFrame view of an answer (for oracle checks and jobs). */
  def toDf(spark: SparkSession, answer: Answer): DataFrame = {
    import spark.implicits._
    spark.createDataset(answer.edges.toSeq).toDF("src", "dst")
  }
}
