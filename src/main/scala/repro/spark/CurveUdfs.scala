package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions.udf
import repro.core.SpaceFillingCurve

/** Spark UDFs computing SFC values — the glue that lets a curve chosen by
  * the O(1) cost model drive DataFrame ordering and Parquet layout.
  */
object CurveUdfs {

  /** 2-D curve value UDF over quantized cell coordinates. */
  def curveValue2d(curve: SpaceFillingCurve): UserDefinedFunction = {
    require(curve.d == 2, s"curve is ${curve.d}-dimensional, expected 2")
    udf((x: Long, y: Long) => curve.value(Array(x, y)))
  }

  /** Append the curve-value column `sfc` computed from the `xq`/`yq` cell
    * columns.
    */
  def withCurveValue(df: DataFrame, curve: SpaceFillingCurve): DataFrame =
    df.withColumn("sfc", curveValue2d(curve)(df("xq"), df("yq")))
}
