package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._

/** More DuckDB-oracle checks: range counts, grouping, and a curve-value join. */
class SqlCurveSpec extends SparkSpec {

  private val bits = 8

  test("oracle: distinct cell count over a range equals SQL") {
    val df = SpatialData.dataset(spark, "NYC", 4000, 23, bits).select("xq", "yq")
    val got = df.where(col("xq") < 128)
      .agg(countDistinct(col("xq"), col("yq")).as("cells"))
    Oracle.assertEquivalent(
      got,
      "SELECT COUNT(DISTINCT (CAST(xq AS BIGINT), CAST(yq AS BIGINT))) AS cells " +
        "FROM pts WHERE CAST(xq AS BIGINT) < 128",
      "pts" -> df)
  }

  test("oracle: top-occupancy cells equal SQL (group + filter)") {
    val df = SpatialData.dataset(spark, "SKEW", 5000, 24, 6).select("xq", "yq")
    val got = df.groupBy("xq", "yq").agg(count(lit(1)).as("cnt"))
      .where(col("cnt") >= 10)
    Oracle.assertEquivalent(
      got,
      "SELECT xq, yq, COUNT(*) AS cnt FROM pts GROUP BY xq, yq HAVING COUNT(*) >= 10",
      "pts" -> df)
  }

  test("oracle: join of points with block assignment equals SQL") {
    // Assign each point its curve value and join against a small blocks
    // table — the shape of a curve-clustered storage catalog lookup.
    val curve = BMC.lexicographic(2, 4, 0)
    val df = SpatialData.dataset(spark, "UNI", 800, 25, 4).select("xq", "yq")
    val withV = CurveUdfs.withCurveValue(df, curve)
    val blocks = spark.range(0, 16).selectExpr("id AS blk", "id * 16 AS lo", "id * 16 + 15 AS hi")
    val got = withV.join(blocks,
        withV("sfc") >= blocks("lo") && withV("sfc") <= blocks("hi"))
      .groupBy("blk").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT CAST(b.blk AS BIGINT) AS blk, COUNT(*) AS cnt FROM pts p JOIN blocks b " +
        "ON CAST(p.sfc AS BIGINT) BETWEEN CAST(b.lo AS BIGINT) AND CAST(b.hi AS BIGINT) " +
        "GROUP BY 1",
      "pts" -> withV, "blocks" -> blocks)
  }
}
