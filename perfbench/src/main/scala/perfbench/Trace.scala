package perfbench

import java.io.{BufferedWriter, File, FileOutputStream, OutputStreamWriter}
import java.nio.charset.StandardCharsets
import java.util.zip.GZIPOutputStream
import repro.core.{AdjGraph, Budget, HDegEngine}

/** In-memory span log for the traced run.
  *
  * A span is one timed call into a layer: name, start, end, the span that
  * was open when it began (its parent), and the h-BFS visits and BFS count
  * charged to the call's [[Budget]] while it ran. `items` and `arg` carry
  * the batch length and BFS radius of engine calls (0 elsewhere).
  *
  * Rows live in growable primitive columns, so recording a span allocates
  * nothing once the columns are large enough. Single-threaded: spans are
  * opened and closed on the thread that calls into the program.
  */
final class SpanRecorder {
  private val epoch = System.nanoTime()
  private var size = 0
  private var open = -1
  private var names = new Array[String](1024)
  private var parents = new Array[Int](1024)
  private var starts = new Array[Long](1024)
  private var ends = new Array[Long](1024)
  private var itemCol = new Array[Int](1024)
  private var argCol = new Array[Int](1024)
  private var visitCol = new Array[Long](1024)
  private var bfsCol = new Array[Long](1024)

  def count: Int = size

  /** Opens a span as a child of the innermost open span; returns its id. */
  def begin(name: String, budget: Budget, nItems: Int = 0, arg: Int = 0): Int = {
    if (size == names.length) grow()
    val id = size
    size += 1
    names(id) = name; parents(id) = open; itemCol(id) = nItems; argCol(id) = arg
    visitCol(id) = budget.visits; bfsCol(id) = budget.bfsCount
    open = id
    starts(id) = System.nanoTime()
    id
  }

  /** Closes span `id`, turning its budget readings into deltas. */
  def finish(id: Int, budget: Budget): Unit = {
    ends(id) = System.nanoTime()
    visitCol(id) = budget.visits - visitCol(id)
    bfsCol(id) = budget.bfsCount - bfsCol(id)
    open = parents(id)
  }

  def span[A](name: String, budget: Budget)(body: => A): (A, Int) = {
    val id = begin(name, budget)
    val out = try body finally finish(id, budget)
    (out, id)
  }

  def seconds(id: Int): Double = (ends(id) - starts(id)) / 1e9
  def visits(id: Int): Long = visitCol(id)
  def bfs(id: Int): Long = bfsCol(id)

  def name(id: Int): String = names(id)
  def items(id: Int): Int = itemCol(id)
  def arg(id: Int): Int = argCol(id)

  /** Ids of the spans opened directly inside span `parent`. */
  def children(parent: Int): Array[Int] =
    (parent + 1 until size).filter(parents(_) == parent).toArray

  /** Writes every span as gzipped CSV, times in ns since the recorder began. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(new FileOutputStream(file)), StandardCharsets.UTF_8))
    try {
      out.write("id,name,parent,start_ns,end_ns,items,arg,visits,bfs\n")
      var i = 0
      while (i < size) {
        out.write(s"$i,${names(i)},${parents(i)},${starts(i) - epoch},${ends(i) - epoch}," +
                  s"${itemCol(i)},${argCol(i)},${visitCol(i)},${bfsCol(i)}\n")
        i += 1
      }
    } finally out.close()
  }

  private def grow(): Unit = {
    val cap = names.length * 2
    names = java.util.Arrays.copyOf(names, cap)
    parents = java.util.Arrays.copyOf(parents, cap)
    starts = java.util.Arrays.copyOf(starts, cap)
    ends = java.util.Arrays.copyOf(ends, cap)
    itemCol = java.util.Arrays.copyOf(itemCol, cap)
    argCol = java.util.Arrays.copyOf(argCol, cap)
    visitCol = java.util.Arrays.copyOf(visitCol, cap)
    bfsCol = java.util.Arrays.copyOf(bfsCol, cap)
  }
}

/** Decorating [[HDegEngine]]: opens one span around each batch call of the
  * wrapped engine. Visits and BFS are attributed from the deltas of the
  * call's [[Budget]]. */
final class TracingEngine(inner: HDegEngine, rec: SpanRecorder) extends HDegEngine {
  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    val id = rec.begin("engine.batchHDeg", budget, vertices.length, h)
    try inner.batchHDeg(g, alive, vertices, h, budget) finally rec.finish(id, budget)
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    val id = rec.begin("engine.batchNbrMax", budget, vertices.length, r)
    try inner.batchNbrMax(g, alive, vertices, r, value, budget) finally rec.finish(id, budget)
  }

  override def shutdown(): Unit = inner.shutdown()
}

object TracingEngine {
  /** `ThreadedEngine` runs batches shorter than this on the calling thread
    * (its private `minParallelBatch`), so they gain nothing from threads. */
  val ThreadedCutoff = 32
}
