package org.apache.spark

/** Spark delivers listener events on an asynchronous bus; a listener's
  * counts are complete only once the bus has drained. The drain call is
  * package-private, hence this one-line bridge.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
