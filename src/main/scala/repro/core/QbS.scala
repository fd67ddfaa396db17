package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.graph.{Csr, GraphOps}

/** Query-by-Sketch, end to end: offline index construction (labelling + meta-graph +
  * `Δ` + sparsified graph) and online query answering (sketch + guided search).
  */
object QbS {

  /** The offline-built QbS index. Queries run on its [[Index.engine]]; the DataFrames
    * are the substrate of [[GuidedSearch.run]] and `BiBfs.spg(DataFrame, …)`. Only
    * `edges` is cached: the others are views over driver-side arrays that no query on
    * the engine reads.
    *
    * The engine derives `Δ` from the labels and the meta-edges (`QueryEngine.deltaOf`),
    * so `delta` is a view for DataFrame readers and is never read back into it.
    *
    * @param labels     `(v, lm, dist)` path labelling `L`, a view over the label matrix
    * @param meta       driver-side meta-graph with APSP (§5.2 precomputation)
    * @param delta      `(r, rp, src, dst)` landmark-pair SPG segments `Δ`, a view over
    *                   driver-side rows
    * @param gMinusSym  symmetric edges of `G⁻ = G[V \ R]`, a view over the CSR of `G`
    * @param edges      cached canonical edges of `G`
    */
  final case class Index(landmarks: Seq[Long], labels: DataFrame, meta: MetaGraph,
                         delta: DataFrame, gMinusSym: DataFrame, edges: DataFrame,
                         labelEntries: Long, deltaEntries: Long, buildMillis: Double) {

    /** The index collected into the driver-local [[QueryEngine]] that [[query]] runs
      * on. [[assemble]] builds it eagerly; an `Index` constructed from its fields
      * collects its edges and labels on first use (two Spark jobs).
      */
    lazy val engine: QueryEngine = prebuilt.getOrElse(
      QueryEngine.collect(landmarks, edges, labels, meta.edges))
    private[core] var prebuilt: Option[QueryEngine] = None
  }

  /** Result of one `SPG(u, v)` query: the search core's result. */
  type Answer = GuidedSearch.Result

  /** Build the index: cache and collect the edges (one Spark job), lay out their CSR,
    * pick landmarks from its degrees, label (one Spark job) and [[assemble]].
    *
    * @param numLandmarks `|R|` (paper default 20), picked by descending degree
    * @param parallel     landmark BFSs spread over tasks (QbS-P) vs in one (QbS)
    */
  def build(spark: SparkSession, canonicalEdges: DataFrame, numLandmarks: Int = 20,
            parallel: Boolean = true): Index = {
    val t0 = System.nanoTime()
    val cached = canonicalEdges.persist(StorageLevel.MEMORY_AND_DISK)
    val g = Csr(GraphOps.edgesOf(cached))
    val landmarks = GraphOps.topDegreeLandmarks(g, numLandmarks)
    assemble(spark, cached, Labelling.run(spark, g, landmarks, parallel), t0)
  }

  /** Assemble the index around an already-computed labelling of `canonicalEdges` (lets
    * benches time the labelling phase separately). No Spark job: the query engine is
    * laid out around the labelling's CSR and matrix, `Δ` computed from them, and its
    * arrays give the label and Δ counts. `canonicalEdges` become `Index.edges` as they
    * are, so a caller other than [[build]] caches them itself.
    */
  def assemble(spark: SparkSession, canonicalEdges: DataFrame,
               lab: Labelling.Result, t0: Long = System.nanoTime()): Index = {
    val engine = QueryEngine(lab)
    val index = Index(lab.landmarks, lab.labels, new MetaGraph(lab.landmarks, lab.metaEdges),
      engine.deltaDf(spark), engine.gMinusDf(spark), canonicalEdges, engine.labelEntries,
      engine.deltaEntries, buildMillis = (System.nanoTime() - t0) / 1e6)
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
        BiSearch.guided(e.sparsified, e.sketch(index.meta, u, v))
    res.copy(millis = (System.nanoTime() - t0) / 1e6)
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
