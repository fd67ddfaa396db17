package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{broadcast, col}

/** Frontier expansion, the one graph operation online searches need.
  *
  * A [[Traversal.Graph]] is a substrate the bidirectional search core
  * (`repro.core.BiSearch`) runs on. Two exist: the driver-local arrays of
  * `repro.core.QueryEngine`, which answer `QbS.query`, and [[Traversal.Frames]], which
  * expands a frontier with one DataFrame join per level: the (small) frontier is
  * broadcast against the (large, cached) symmetric edge relation.
  */
object Traversal {

  /** An undirected graph that can expand a frontier. */
  trait Graph {

    /** Calls `f(w, x)` once per symmetric edge `(w, x)` with `w ∈ frontier`. */
    def expand(frontier: collection.Set[Long])(f: (Long, Long) => Unit): Unit
  }

  /** The DataFrame-join substrate over cached symmetric edges. */
  class Frames(symEdges: DataFrame) extends Graph {
    def expand(frontier: collection.Set[Long])(f: (Long, Long) => Unit): Unit =
      neighborEdges(symEdges, frontier).foreach { case (w, x) => f(w, x) }
  }

  /** All `(w, neighbor)` pairs with `w ∈ frontier`, via one broadcast join against
    * `symEdges`. Result size is the total degree of the frontier; an empty frontier
    * runs no Spark job.
    */
  def neighborEdges(symEdges: DataFrame, frontier: Iterable[Long]): Array[(Long, Long)] = {
    if (frontier.isEmpty) return Array.empty
    val spark = symEdges.sparkSession
    import spark.implicits._
    val f = spark.createDataset(frontier.toSeq).toDF("fv")
    symEdges.join(broadcast(f), col("src") === col("fv"))
      .select(col("src"), col("dst"))
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)))
  }
}
