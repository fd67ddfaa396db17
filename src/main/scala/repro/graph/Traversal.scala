package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{broadcast, col}

/** Frontier expansion on DataFrames, the one graph operation the DataFrame substrate of
  * the search core (`repro.core.GuidedSearch.Frames`) needs: the (small) frontier is
  * broadcast against the (large, cached) symmetric edge relation.
  */
object Traversal {

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
