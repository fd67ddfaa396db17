package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, LongType}
import repro.graph.{Csr, GraphOps}

/** Offline phase of QbS: Algorithm 2 of the paper, one BFS per landmark.
  *
  * Algorithm 2's two queues (`Q_L` = reached via a landmark-free path, `Q_N` = reached
  * only through landmarks) reduce to one per-level rule: a vertex newly reached at
  * level `n+1` of the BFS from landmark `r` is flagged iff at least one of its level-`n`
  * predecessors was in `Q_L` (the root counts; other landmarks never propagate the
  * flag). Flagged non-landmarks get label `(r, n+1)`; flagged landmarks yield
  * meta-graph edge `(r, v)` with weight `n+1`.
  *
  * The BFSs are independent and their output is deterministic in `(G, R)` (paper
  * Lemma 5.2), so the labelling is one Spark job over a broadcast CSR of `G`: each task
  * runs the BFSs of some landmarks on arrays and returns one byte column per landmark.
  * QbS-P spreads the landmarks over up to `defaultParallelism` tasks (the paper's
  * thread-parallel variant); sequential QbS runs them all in one task, for the Table-2
  * comparison. The columns fill the paper's Table-3 byte label matrix, which the query
  * engine holds as it is, and `Δ` is computed on the driver from it.
  */
object Labelling {

  /** Result of the labelling phase: the path labelling `L` (Def. 4.2) as the paper's
    * Table-3 byte matrix, and the meta-graph's edges (Def. 4.1).
    *
    * @param graph     the CSR of `G` the BFSs ran on; row `i` of `label` belongs to
    *                  `graph.ids(i)`
    * @param label     `|V| × |R|` bytes, `δ_vr` at `i·|R| + k` for `r = landmarks(k)`,
    *                  255 meaning "no label" (landmark rows are empty)
    * @param metaEdges canonical `(r, r', σ)` rows of the meta-graph
    */
  final class Result private[core] (spark: SparkSession, val landmarks: Seq[Long],
                                    val graph: Csr, val label: Array[Byte],
                                    val metaEdges: Seq[(Long, Long, Int)]) {

    /** DataFrame `(v, lm, dist)`: a view over [[label]], computed when a job reads it. */
    lazy val labels: DataFrame = {
      val (ids, label, lms) = (graph.ids, this.label, landmarks.toArray)
      GraphOps.view(spark, "v" -> LongType, "lm" -> LongType, "dist" -> IntegerType) { () =>
        for {
          i <- ids.indices.iterator; k <- lms.indices.iterator
          d = label(i * lms.length + k) & 0xff if d != 255
        } yield Row(ids(i), lms(k), d)
      }
    }
  }

  /** One BFS of Algorithm 2 from dense vertex `root` over the CSR `offsets`/`adj`.
    *
    * @return the depth byte of every vertex the BFS flags (255 for the others and the
    *         root), and the deepest flagged vertex with its depth (`(-1, 0)` if none);
    *         the bytes are only valid if that depth fits one
    */
  private def bfs(offsets: Array[Int], adj: Array[Int], isLm: Array[Boolean],
                  root: Int): (Array[Byte], Int, Int) = {
    val n = isLm.length
    val depth = Array.fill(n)(-1)
    val flagged = new Array[Boolean](n)
    val queue = new Array[Int](n)
    queue(0) = root; depth(root) = 0; flagged(root) = true
    var lo = 0
    var hi = 1
    var d = 0
    var deepest = -1
    // once a level has no flagged non-landmark (or root), no deeper vertex is flagged
    var flagsLeft = true
    while (flagsLeft && lo < hi) {
      val end = hi
      flagsLeft = false
      while (lo < end) {
        val w = queue(lo)
        val pass = flagged(w) && (w == root || !isLm(w))
        var e = offsets(w)
        while (e < offsets(w + 1)) {
          val x = adj(e)
          if (depth(x) < 0) { depth(x) = d + 1; queue(hi) = x; hi += 1 }
          if (pass && depth(x) == d + 1 && !flagged(x)) {
            flagged(x) = true; deepest = x
            if (!isLm(x)) flagsLeft = true
          }
          e += 1
        }
        lo += 1
      }
      d += 1
    }
    val column = Array.fill[Byte](n)(QueryEngine.NoLabel)
    for (x <- 0 until n if flagged(x) && x != root) column(x) = depth(x).toByte
    (column, deepest, if (deepest < 0) 0 else depth(deepest))
  }

  /** Construct the labelling scheme on `G`, collecting its canonical edges first (one
    * Spark job); see the CSR variant.
    */
  def run(spark: SparkSession, canonicalEdges: DataFrame, landmarks: Seq[Long],
          parallel: Boolean = true): Result =
    run(spark, Csr(GraphOps.edgesOf(canonicalEdges)), landmarks, parallel)

  /** Construct the labelling scheme on the CSR `g`: one Spark job whose tasks run the
    * landmarks' BFSs over a broadcast of `g`'s adjacency and the landmark flags.
    *
    * There is no depth cap: each BFS runs until no vertex can be flagged, which the
    * component's diameter bounds. A label or meta-edge distance of 255 or more fails
    * with the one-byte label encoding's error.
    *
    * @param parallel true: the landmarks spread over `min(|R|, defaultParallelism)`
    *                 tasks (QbS-P); false: one task runs them all (sequential QbS).
    *                 Identical output either way (Lemma 5.2).
    */
  def run(spark: SparkSession, g: Csr, landmarks: Seq[Long], parallel: Boolean): Result = {
    val sc = spark.sparkContext
    val numR = landmarks.size
    val isLm = g.ranks(landmarks).map(_ >= 0)
    val roots = landmarks.map(g.indexOf).toArray
    val tasks = if (parallel) math.max(1, math.min(numR, sc.defaultParallelism)) else 1
    val shared = sc.broadcast((g.offsets, g.adj, isLm))
    val columns =
      try sc.parallelize(0 until numR, tasks).map { k =>
        val (offsets, adj, isLm) = shared.value
        k -> bfs(offsets, adj, isLm, roots(k))
      }.collect()
      finally shared.destroy()

    val label = QueryEngine.emptyLabels(g.numV, numR)
    val metaEdges = Seq.newBuilder[(Long, Long, Int)]
    for ((k, (column, deepest, maxDepth)) <- columns) {
      val r = landmarks(k)
      if (deepest >= 0) QueryEngine.labelByte(g.ids(deepest), r, maxDepth)
      for (i <- 0 until g.numV if column(i) != QueryEngine.NoLabel) {
        val v = g.ids(i)
        if (isLm(i)) metaEdges += ((math.min(r, v), math.max(r, v), column(i) & 0xff))
        else label(i * numR + k) = column(i)
      }
    }
    new Result(spark, landmarks, g, label, metaEdges.result().distinct.sortBy(e => (e._1, e._2)))
  }

  /** Precompute `Δ`: for every meta-edge `(r, r', σ)`, the shortest path graph of the
    * landmark-free shortest `r`–`r'` paths in `G`. Computed on the driver from the
    * label matrix and the labelling's CSR (see [[QueryEngine]]), which must be the
    * CSR of `canonicalEdges`; no Spark job.
    *
    * @return DataFrame `(r, rp, src, dst)` with `r < rp` and `src < dst`, a view over
    *         driver-side rows.
    */
  def delta(spark: SparkSession, canonicalEdges: DataFrame, lab: Result): DataFrame =
    QueryEngine(lab).deltaDf(spark)
}
