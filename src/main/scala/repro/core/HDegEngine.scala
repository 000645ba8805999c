package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit}
import scala.jdk.CollectionConverters._

/** Batch computation of h-degrees for a set of vertices over a fixed alive
  * mask — the block the paper parallelizes in §4.6 (its preferred option:
  * "give different h-BFS traversals to different processors").
  *
  * Engines must be pure w.r.t. the graph state: each listed vertex gets an
  * independent h-BFS, so batches can be computed in any order / in parallel.
  */
trait HDegEngine {
  /** h-degree of each vertex in `vertices` (aligned), charged to `budget`,
    * in a fresh array the caller owns. Runs the count-only kernel
    * ([[HBfs.degree]]): no neighbourhood is recorded. */
  def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                h: Int, budget: Budget): Array[Int]

  /** For each vertex v in `vertices`: max of `value` over v's r-neighborhood
    * including v itself — the kernel of the LB2 bound (Obs. 2). */
  def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                  r: Int, value: Array[Int], budget: Budget): Array[Int]

  /** Release any pooled resources (thread pools). */
  def shutdown(): Unit = ()
}

private object EngineKernels {
  /** Sequential kernel shared by the engines: h-degree of each vertex in
    * `vertices(from until until)`, written to the same positions of `out`. */
  def hDegRange(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                h: Int, budget: Budget,
                bfs: HBfs, out: Array[Int], from: Int, until: Int): Unit = {
    var i = from
    while (i < until) {
      out(i) = bfs.degree(g, alive, vertices(i), h, budget)
      i += 1
    }
  }

  /** Sequential kernel shared by the engines: max of `value` over the
    * r-neighborhood of each vertex (including the vertex). */
  def nbrMaxRange(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                  r: Int, value: Array[Int], budget: Budget,
                  bfs: HBfs, out: Array[Int], from: Int, until: Int): Unit = {
    var i = from
    while (i < until) {
      val v = vertices(i)
      var best = value(v)
      if (r >= 1) {
        val cnt = bfs.run(g, alive, v, r, budget)
        var j = 0
        while (j < cnt) {
          val x = value(bfs.nbrs(j))
          if (x > best) best = x
          j += 1
        }
      }
      out(i) = best
      i += 1
    }
  }
}

/** Single-threaded engine (the sequential versions of the algorithms). */
final class SequentialEngine(n: Int) extends HDegEngine {
  private val bfs = new HBfs(n)

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    EngineKernels.hDegRange(g, alive, vertices, h, budget, bfs, out, 0, vertices.length)
    out
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    EngineKernels.nbrMaxRange(g, alive, vertices, r, value, budget, bfs, out, 0, vertices.length)
    out
  }
}

/** Multithreaded engine (§4.6): a fixed pool; each task owns a thread-local
  * [[HBfs]] scratchpad and takes a contiguous chunk of the vertex batch.
  * Falls back to sequential for small batches where fork-join overhead
  * dominates.
  */
final class ThreadedEngine(n: Int, threads: Int = Runtime.getRuntime.availableProcessors())
    extends HDegEngine {
  private val pool = Executors.newFixedThreadPool(threads)
  private val localBfs = ThreadLocal.withInitial[HBfs](() => new HBfs(n))
  private val seqBfs = new HBfs(n)
  private val minParallelBatch = 32

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] =
    dispatch(vertices.length) { (bfs, out, from, until) =>
      EngineKernels.hDegRange(g, alive, vertices, h, budget, bfs, out, from, until)
    }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] =
    dispatch(vertices.length) { (bfs, out, from, until) =>
      EngineKernels.nbrMaxRange(g, alive, vertices, r, value, budget, bfs, out, from, until)
    }

  /** Runs `kernel` over `[0, size)` into a fresh output array: inline for
    * batches under the cutoff, else in chunks across the pool. */
  private def dispatch(size: Int)(kernel: (HBfs, Array[Int], Int, Int) => Unit): Array[Int] = {
    val out = new Array[Int](size)
    if (size < minParallelBatch) kernel(seqBfs, out, 0, size)
    else {
      val chunk = math.max(16, size / (threads * 4))
      val tasks = (0 until size by chunk).map { start =>
        val end = math.min(size, start + chunk)
        new Callable[Unit] {
          override def call(): Unit = kernel(localBfs.get(), out, start, end)
        }
      }
      // get() wraps a worker's exception; rethrow BudgetExceeded and other
      // unchecked throwables as themselves.
      try pool.invokeAll(tasks.asJava).asScala.foreach(_.get())
      catch {
        case e: ExecutionException => e.getCause match {
          case c @ (_: RuntimeException | _: Error) => throw c
          case _                                    => throw e
        }
      }
    }
    out
  }

  override def shutdown(): Unit = {
    pool.shutdown()
    pool.awaitTermination(10, TimeUnit.SECONDS)
    ()
  }
}
