package repro.core

import org.apache.spark.graphx.{EdgeDirection, EdgeTriplet, Graph => XGraph, Pregel, VertexId}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{Bfs, GraphOps}

/** Offline phase of QbS: Algorithm 2 of the paper as a GraphX Pregel computation.
  *
  * Algorithm 2's two queues (`Q_L` = reached via a landmark-free path, `Q_N` = reached
  * only through landmarks) reduce to one per-level rule: a vertex newly reached at
  * level `n+1` of the BFS from landmark `r` is flagged iff at least one of its level-`n`
  * predecessors was in `Q_L` (the root counts; other landmarks never propagate the
  * flag). Flagged non-landmarks get label `(r, n+1)`; flagged landmarks yield
  * meta-graph edge `(r, v)` with weight `n+1`.
  *
  * Every BFS starts at superstep 0 and advances one level per superstep, so whatever a
  * vertex first receives in superstep `n` is at depth `n` (paper Lemma 5.2). A batch of
  * up to 64 BFSs is therefore one Pregel whose state and messages are bitmasks over the
  * batch's sources plus one depth: the Spark analog of the paper's thread-parallel
  * QbS-P. Batches are independent (only "is a landmark" and "is this BFS's root" gate
  * the flag), so `|R| > 64` runs one Pregel per 64 sources, and `parallel = false` runs
  * one Pregel per landmark, mirroring sequential QbS for the Table-2 comparison.
  *
  * The final states are collected once into the paper's Table-3 byte label matrix,
  * which the query engine holds as it is, and `Δ` is computed on the driver from it.
  */
object Labelling {

  /** Sources per Pregel: one bit each in a `Long`. */
  private val BatchWidth = 64

  /** Per-vertex Pregel state of one batch; bit `k` of a mask is the batch's `k`-th
    * source.
    *
    * @param isLm    vertex is a landmark
    * @param self    the vertex's own bit if it is a source of this batch, else 0
    * @param reached BFSs that have reached the vertex
    * @param flagged the subset of `reached` that arrived from `Q_L`
    * @param fresh   the subset of `reached` added in the latest superstep (drives
    *                message sending)
    * @param level   depth of the `fresh` bits
    * @param depth   depth per flagged bit, saturated at 255 so that it never wraps; the
    *                matrix fill rejects 255 (null while nothing is flagged)
    */
  private final case class State(isLm: Boolean, self: Long, reached: Long, flagged: Long,
                                 fresh: Long, level: Int, depth: Array[Byte])

  /** BFSs reaching the receiver, those among them arriving from `Q_L`, and their
    * depth (the same for every bit, by Lemma 5.2).
    */
  private final case class Msg(mask: Long, flags: Long, depth: Int)

  /** Result of the labelling phase: the path labelling `L` (Def. 4.2) as the paper's
    * Table-3 byte matrix, and the meta-graph's edges (Def. 4.1).
    *
    * @param ids       sorted vertex ids of `G`; row `i` of `label` belongs to `ids(i)`
    * @param label     `|V| × |R|` bytes, `δ_vr` at `i·|R| + k` for `r = landmarks(k)`,
    *                  255 meaning "no label" (landmark rows are empty)
    * @param metaEdges canonical `(r, r', σ)` rows of the meta-graph
    */
  final class Result(spark: SparkSession, val landmarks: Seq[Long], val ids: Array[Long],
                     val label: Array[Byte], val metaEdges: Seq[(Long, Long, Int)]) {

    /** DataFrame `(v, lm, dist)`: a view over [[label]], computed when a job reads it. */
    lazy val labels: DataFrame = {
      import spark.implicits._
      val (ids, label, lms) = (this.ids, this.label, landmarks.toArray)
      spark.range(ids.length).as[Long]
        .flatMap(i => rowsOf(ids, label, lms, i.toInt))
        .toDF("v", "lm", "dist")
    }
  }

  /** The `(v, lm, dist)` rows of row `i` of a label matrix. */
  private def rowsOf(ids: Array[Long], label: Array[Byte], lms: Array[Long],
                     i: Int): Iterator[(Long, Long, Int)] =
    Iterator.range(0, lms.length).flatMap { k =>
      val d = label(i * lms.length + k) & 0xff
      if (d == 255) None else Some((ids(i), lms(k), d))
    }

  /** Run the BFSs from `sources` (at most 64 landmarks) as one Pregel and collect each
    * vertex's flagged bits (without its own) and their depths. The graphs it creates
    * are unpersisted before it returns.
    */
  private def pregelFrom(graph: XGraph[Int, Int], landmarkSet: Set[Long],
                         sources: Seq[Long]): Array[(VertexId, Long, Array[Byte])] = {
    val bitOf = sources.zipWithIndex.map { case (r, k) => r -> (1L << k) }.toMap
    val width = sources.size
    val init = graph.mapVertices { (id, _) =>
      val self = bitOf.getOrElse(id, 0L)
      State(landmarkSet.contains(id), self, self, self, self, 0, null)
    }

    def vprog(id: VertexId, st: State, msg: Msg): State = {
      if (msg.mask == 0L) st // only the initial message is empty; keep initial `fresh`
      else {
        val added = msg.mask & ~st.reached
        // Store the received flag as-is: for landmarks it marks a meta edge, for
        // non-landmarks a label. Landmark-ness only gates propagation (sendMsg).
        val newFlags = msg.flags & added
        val depth =
          if (newFlags == 0L) st.depth
          else {
            val d = if (st.depth == null) new Array[Byte](width) else st.depth.clone()
            var bits = newFlags
            while (bits != 0L) {
              d(java.lang.Long.numberOfTrailingZeros(bits)) = QueryEngine.depthByte(msg.depth)
              bits &= bits - 1
            }
            d
          }
        State(st.isLm, st.self, st.reached | added, st.flagged | newFlags, added, msg.depth,
          depth)
      }
    }

    def sendMsg(t: EdgeTriplet[State, Int]): Iterator[(VertexId, Msg)] = {
      val src = t.srcAttr
      val mask = src.fresh & ~t.dstAttr.reached
      if (mask == 0L) Iterator.empty
      else {
        // Landmarks are Q_N (never propagate the flag) except the BFS root itself.
        val pass = if (src.isLm) src.self else -1L
        Iterator((t.dstId, Msg(mask, mask & src.flagged & pass, src.level + 1)))
      }
    }

    def mergeMsg(a: Msg, b: Msg): Msg = Msg(a.mask | b.mask, a.flags | b.flags, a.depth)

    try {
      val done = Pregel(init, Msg(0L, 0L, 0), activeDirection = EdgeDirection.Out)(
        vprog, sendMsg, mergeMsg)
      try
        done.vertices.map { case (v, st) =>
          val out = st.flagged & ~st.self
          (v, out, if (out == 0L) null else st.depth)
        }.collect()
      finally unpersistGraph(done)
    } finally unpersistGraph(init)
  }

  /** Unpersist a graph's vertices and edges, which GraphX caches as it derives graphs. */
  private def unpersistGraph(g: XGraph[_, _]): Unit = {
    g.vertices.unpersist(blocking = false)
    g.edges.unpersist(blocking = false)
  }

  /** Construct the labelling scheme.
    *
    * There is no superstep cap: each Pregel runs until no vertex gains a landmark,
    * which the component's diameter bounds. A label or meta-edge distance of 255 or
    * more fails with the one-byte label encoding's error.
    *
    * @param parallel true: one Pregel per 64 landmarks (QbS-P); false: one Pregel per
    *                 landmark (sequential QbS). Identical output either way
    *                 (Lemma 5.2).
    */
  def run(spark: SparkSession, canonicalEdges: DataFrame, landmarks: Seq[Long],
          parallel: Boolean = true): Result = {
    val lmSet = landmarks.toSet
    val graph = Bfs.toGraphX(spark, canonicalEdges)
    val (ids, batches) =
      try {
        val batches = landmarks.grouped(if (parallel) BatchWidth else 1).toSeq
          .map(b => b -> pregelFrom(graph, lmSet, b))
        val ids = batches.headOption.map(_._2.map(_._1))
          .getOrElse(graph.vertices.map(_._1).collect())
        (ids, batches)
      } finally unpersistGraph(graph)
    java.util.Arrays.sort(ids)
    fromBatches(spark, landmarks, ids, batches)
  }

  /** Lay the flagged bits that each batch's Pregel collected into the label matrix
    * (non-landmarks) and the meta-edges (landmarks), rejecting depths that do not fit
    * one byte.
    *
    * @param ids     sorted vertex ids of `G`
    * @param batches per batch: its sources, and per vertex its flagged bits (without its
    *                own) with their depth bytes (see [[QueryEngine.depthByte]])
    */
  private[core] def fromBatches(spark: SparkSession, landmarks: Seq[Long], ids: Array[Long],
                                batches: Seq[(Seq[Long], Array[(VertexId, Long, Array[Byte])])])
      : Result = {
    val lmSet = landmarks.toSet
    val numR = landmarks.size
    val label = QueryEngine.emptyLabels(ids.length, numR)
    val metaEdges = Seq.newBuilder[(Long, Long, Int)]
    var offset = 0
    for ((sources, states) <- batches) {
      for ((v, flagged, depth) <- states) {
        val i = java.util.Arrays.binarySearch(ids, v)
        var bits = flagged
        while (bits != 0L) {
          val k = java.lang.Long.numberOfTrailingZeros(bits)
          val r = sources(k)
          val d = depth(k) & 0xff
          val b = QueryEngine.labelByte(v, r, d)
          if (lmSet.contains(v)) metaEdges += ((math.min(r, v), math.max(r, v), d))
          else label(i * numR + offset + k) = b
          bits &= bits - 1
        }
      }
      offset += sources.size
    }
    new Result(spark, landmarks, ids, label, metaEdges.result().distinct.sortBy(e => (e._1, e._2)))
  }

  /** Precompute `Δ`: for every meta-edge `(r, r', σ)`, the shortest path graph of the
    * landmark-free shortest `r`–`r'` paths in `G`. Collects the edges and computes `Δ`
    * on the driver from the label matrix (see [[QueryEngine]]).
    *
    * @return DataFrame `(r, rp, src, dst)` with `r < rp` and `src < dst`, a view over
    *         driver-side rows.
    */
  def delta(spark: SparkSession, canonicalEdges: DataFrame, lab: Result): DataFrame =
    QueryEngine(lab, GraphOps.edgesOf(canonicalEdges)).deltaDf(spark)
}
