package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** DataFrame-level operations on undirected graphs.
  *
  * Two edge representations are used throughout the repo:
  *   - canonical: one row per undirected edge, `src < dst` (storage, results);
  *   - symmetric: both orientations present (BFS / join traversal).
  */
object GraphOps {

  /** Canonicalize an arbitrary `(src, dst)` edge DataFrame: drop self-loops and
    * duplicates, order endpoints so `src < dst`.
    */
  def canonical(edges: DataFrame): DataFrame =
    edges
      .filter(col("src") =!= col("dst"))
      .select(
        least(col("src"), col("dst")).cast("long") as "src",
        greatest(col("src"), col("dst")).cast("long") as "dst")
      .distinct()

  /** Both orientations of a canonical edge list. */
  def symmetric(canonicalEdges: DataFrame): DataFrame =
    canonicalEdges.unionByName(
      canonicalEdges.select(col("dst") as "src", col("src") as "dst"))

  /** Distinct vertex ids of a canonical or symmetric edge list. */
  def vertices(edges: DataFrame): DataFrame =
    edges.select(col("src") as "v")
      .unionByName(edges.select(col("dst") as "v"))
      .distinct()

  /** Vertex degrees `(v, degree)` of a canonical edge list. */
  def degrees(canonicalEdges: DataFrame): DataFrame =
    symmetric(canonicalEdges).groupBy(col("src") as "v")
      .agg(count(lit(1)) as "degree")

  /** Top-`k` vertices by degree (ties broken by smaller id) — the paper's landmark
    * selection strategy (§6.1).
    */
  def topDegreeLandmarks(canonicalEdges: DataFrame, k: Int): Seq[Long] =
    degrees(canonicalEdges)
      .orderBy(col("degree").desc, col("v").asc)
      .limit(k)
      .collect()
      .map(_.getLong(0))
      .toSeq

  /** Sparsified graph `G[V \ R]`: canonical edges with neither endpoint a landmark. */
  def sparsify(canonicalEdges: DataFrame, landmarks: Seq[Long]): DataFrame =
    canonicalEdges.filter(
      !col("src").isin(landmarks: _*) && !col("dst").isin(landmarks: _*))

  /** Cache and materialize a DataFrame (used for the per-index edge sets). */
  def materialize(df: DataFrame): DataFrame = {
    val cached = df.persist(StorageLevel.MEMORY_AND_DISK)
    cached.count()
    cached
  }

  /** The edges `(src, dst)` of a DataFrame, collected (one Spark job). */
  def edgesOf(edges: DataFrame): Array[(Long, Long)] = {
    val spark = edges.sparkSession
    import spark.implicits._
    edges.select("src", "dst").as[(Long, Long)].collect()
  }

  /** Collect a canonical edge DataFrame into a driver-side [[LocalGraph]]. */
  def toLocal(canonicalEdges: DataFrame): LocalGraph = LocalGraph(edgesOf(canonicalEdges))

  /** Canonical edge DataFrame from driver-side pairs (test/bench convenience). */
  def fromPairs(spark: SparkSession, pairs: Seq[(Long, Long)],
                partitions: Int = 4): DataFrame = {
    import spark.implicits._
    canonical(spark.createDataset(pairs).repartition(partitions).toDF("src", "dst"))
  }
}
