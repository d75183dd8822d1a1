package repro.perfbench

import java.io.File
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{FileSourceScanExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.command.DataWritingCommandExec
import org.apache.spark.sql.util.QueryExecutionListener
import scala.collection.mutable

/** Spark numbers taken from Spark itself: scan-node SQL metrics of an
  * executed plan, and task and write-command metrics from listeners.
  */
object SparkSide {

  /** A local session whose scratch files stay under `dir`. */
  def session(dir: File): SparkSession = {
    val cpus = sys.env.get("SPARK_GRAFT_CPUS").filter(_.nonEmpty).getOrElse("*")
    SparkSession.builder
      .master(s"local[$cpus]")
      .appName("sfc-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(dir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(dir, "warehouse").getAbsolutePath)
      .getOrCreate()
  }

  /** Scan metrics of one executed query: files, bytes and rows read. */
  final case class Scan(files: Long, bytes: Long, rows: Long)

  /** Every node of an executed plan, looking inside adaptive plans and
    * their query stages.
    */
  def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case s: QueryStageExec        => nodes(s.plan)
    case other                    => other +: other.children.flatMap(nodes)
  }

  def scanMetrics(qe: QueryExecution): Scan = {
    val found = nodes(qe.executedPlan).collect { case f: FileSourceScanExec => f }
    require(found.nonEmpty, "no file scan in the executed plan")
    def sum(key: String) = found.map(_.metrics.get(key).map(_.value).getOrElse(0L)).sum
    Scan(sum("numFiles"), sum("filesSize"), sum("numOutputRows"))
  }

  /** Counts a group of Spark jobs: task metrics of their stages (from a
    * `SparkListener`) and the write command's own SQL metrics (from a
    * `QueryExecutionListener`). Both arrive asynchronously; read the
    * counts only after [[finish]].
    */
  final class JobMeter(spark: SparkSession, group: String) {
    private val stages = mutable.Set.empty[Int]
    @volatile var shuffleBytes = 0L
    @volatile var runMs = 0L
    @volatile var filesWritten = 0L
    @volatile var bytesWritten = 0L

    private val tasks = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group))
          stages.synchronized(stages ++= e.stageIds)
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.synchronized(stages(e.stageId)) && e.taskMetrics != null) {
          shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
          runMs += e.taskMetrics.executorRunTime
        }
    }
    private val writes = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        nodes(qe.executedPlan).foreach {
          case w: DataWritingCommandExec =>
            filesWritten += w.cmd.metrics.get("numFiles").map(_.value).getOrElse(0L)
            bytesWritten += w.cmd.metrics.get("numOutputBytes").map(_.value).getOrElse(0L)
          case _ =>
        }
      override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    spark.sparkContext.addSparkListener(tasks)
    spark.listenerManager.register(writes)

    /** Run `f` as part of the metered group. */
    def apply[A](f: => A): A = {
      spark.sparkContext.setJobGroup(group, group)
      try f finally spark.sparkContext.clearJobGroup()
    }

    /** Wait for every event so far, then stop listening. */
    def finish(): Unit = {
      ListenerBusAccess.drain(spark.sparkContext)
      spark.sparkContext.removeSparkListener(tasks)
      spark.listenerManager.unregister(writes)
    }
  }

  /** Rows of `df` whose cell columns fall in the rectangle. */
  def inRect(df: DataFrame, q: repro.core.Rect): DataFrame =
    df.where(df("xq").between(q.lo(0), q.hi(0)) && df("yq").between(q.lo(1), q.hi(1)))
}
