package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import repro.core._
import scala.collection.mutable.ArrayBuffer

/** Benchmark of `KHCore.decompose` in four variants
  * {h-LB, h-LB+UB} × {SequentialEngine, ThreadedEngine(nproc)}, on the
  * graphs of one [[Workload]].
  *
  * Usage: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1> [--out <dir>]`.
  *
  * `--trace 0` times the four variants untraced, in rounds that call each
  * variant once on each of the workload's graphs, until the next round
  * would overrun `--seconds`; it prints the end-to-end metrics (the
  * threaded times only as a report line).
  * `--trace 1` times each layer through its public functions and decorates
  * the engine of sequential decompose calls with spans, printing the
  * per-layer metrics and writing the spans under `--out`. Either way every
  * result passes the correctness gate ([[Gate]]). The last stdout line is
  * one JSON object: `correct`, `attempted`, `failed`, `metrics`.
  */
object Main {
  /** Per-call wall-clock budget; an overrun counts as a failed call. */
  val CallLimitMs = 120000L
  private val SetupRepeats = 5

  final case class Variant(name: String, algo: Algo, threaded: Boolean)
  private val variants = Seq(
    Variant("hlb", Algo.HLB, threaded = false),
    Variant("hlbub", Algo.HLBUB(), threaded = false),
    Variant("hlb_par", Algo.HLB, threaded = true),
    Variant("hlbub_par", Algo.HLBUB(), threaded = true))

  /** Wall time, h-BFS visits and count, and bytes the calling thread
    * allocated during one decompose call. */
  final case class Sample(seconds: Double, visits: Long, bfs: Long, allocBytes: Long)

  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.get("workload").flatMap(Workloads(_)).getOrElse {
      System.err.println(s"unknown or missing --workload; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.get("seed").map(_.toLong).getOrElse(workload.defaultSeed)
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val outDir = new File(opts.getOrElse("out", "perfbench/out"))
    val threads = Runtime.getRuntime.availableProcessors()
    val h = workload.h

    // Built first, untimed, so the generator is compiled before setup is timed.
    val warm = workload.warmup(seed)
    val seeds = workload.seeds(seed)
    val setupTimes = seeds.map(s => (0 until SetupRepeats).map { _ =>
      val t0 = System.nanoTime()
      workload.build(s)
      (System.nanoTime() - t0) / 1e9
    })
    val graphs = seeds.map(workload.build)
    Report.line("env", Seq(
      "workload" -> workload.name, "seed" -> seed, "h" -> h, "graphs" -> graphs.size,
      "n" -> graphs.map(_.n).mkString(" "), "m" -> graphs.map(_.numEdges).mkString(" "),
      "nproc" -> threads, "threads" -> threads,
      "xmx_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "git_sha" -> System.getProperty("perfbench.gitSha", "unknown"),
      "trace" -> trace, "seconds" -> seconds))

    warmUp(warm, h, threads)
    val gates = graphs.map(new Gate(_, h))
    val metrics =
      if (trace) Layers.run(gates, seconds, setupTimes,
                            new File(outDir, s"spans-${workload.name}-seed$seed.csv.gz"))
      else endToEnd(gates, seconds, threads, setupTimes)
    metrics.foreach(Report.metric)
    println(Report.result(gates.map(_.attempted).sum, gates.map(_.failed).sum, metrics))
  }

  /** Runs every variant and layer call on a small graph of the workload's
    * family so timed calls start on compiled code. */
  private def warmUp(g: AdjGraph, h: Int, threads: Int): Unit = {
    val seq = new SequentialEngine(g.n)
    val par = new ThreadedEngine(g.n, threads)
    try {
      for (_ <- 0 until 3; v <- variants)
        KHCore.decompose(g, h, v.algo, Some(if (v.threaded) par else seq))
      Bounds.upperBound(g, h, seq)
      Gate.certify(g, h, KHCore.decompose(g, h, Algo.HLB, Some(seq)).core)
    } finally par.shutdown()
  }

  /** Times one `KHCore.decompose` call on the gate's graph, through the
    * gate; None if the call failed. `engine` must fit the largest graph. */
  def timedDecompose(gate: Gate, algo: Algo, engine: HDegEngine): Option[Sample] =
    gate.attempt {
      val budget = Budget.withTimeLimit(CallLimitMs)
      val a0 = threadBean.getCurrentThreadAllocatedBytes
      val t0 = System.nanoTime()
      val res = KHCore.decompose(gate.g, gate.h, algo, Some(engine), budget)
      val t1 = System.nanoTime()
      val a1 = threadBean.getCurrentThreadAllocatedBytes
      (Sample((t1 - t0) / 1e9, res.visits, res.bfsCount, a1 - a0), res)
    }.map(_._1)

  /** Repeats `round` until starting another one would overrun `seconds`;
    * always runs at least once. */
  def rounds(seconds: Double)(round: => Unit): Unit = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var last = 0L
    do {
      val t0 = System.nanoTime()
      round
      last = System.nanoTime() - t0
    } while (System.nanoTime() + last <= deadline)
  }

  /** Each round calls every variant once on every graph, graph by graph,
    * so a slow spell of the machine hits all variants alike. */
  private def endToEnd(gates: Seq[Gate], seconds: Double, threads: Int,
                       setupTimes: Seq[Seq[Double]]): Seq[Metric] = {
    val maxN = gates.map(_.g.n).max
    val seq = new SequentialEngine(maxN)
    val par = new ThreadedEngine(maxN, threads)
    val samples = variants.map(v => v.name -> gates.map(_ => ArrayBuffer.empty[Sample])).toMap
    try rounds(seconds) {
      for ((gate, i) <- gates.zipWithIndex; v <- variants)
        timedDecompose(gate, v.algo, if (v.threaded) par else seq).foreach(samples(v.name)(i) += _)
    } finally par.shutdown()

    def per[A](name: String)(f: Sample => A): Seq[Seq[A]] = samples(name).map(_.map(f).toSeq)
    Report.line("calls", variants.map(v =>
      s"${v.name}_s" -> per(v.name)(_.seconds).map(ts => f"${Report.median(ts)}%.3f").mkString(" ")))
    // Threaded times swing by up to 3x when the host is contended, far
    // beyond any bound; they are reported here and, as
    // engine.threaded_s.<algo>, by the traced run, but not as metrics.
    Report.line("threaded", variants.filter(_.threaded).map(v =>
      s"${v.name}_s" -> Report.median(per(v.name)(_.seconds).filter(_.nonEmpty).map(Report.median))))
    Seq(Metric.median("setup_s", "s", setupTimes)) ++
      variants.filterNot(_.threaded).map(v => Metric.median(s"${v.name}_s", "s", per(v.name)(_.seconds))) ++
      Seq("hlb", "hlbub").flatMap(a =>
        Seq(Metric.exact(s"${a}_visits", per(a)(_.visits)), Metric.exact(s"${a}_bfs", per(a)(_.bfs)))) ++
      Seq("hlb", "hlbub").map(a => Metric.median(s"${a}_alloc_mb", "MB", per(a)(_.allocBytes / 1e6)))
  }
}

/** Correctness gate. Every decompose result must equal the first one
  * (identical core arrays across variants and repeats), and that first
  * one must pass [[Gate.certify]]. A throw (e.g. `BudgetExceeded`) or a
  * mismatch counts as a failed call.
  */
final class Gate(val g: AdjGraph, val h: Int) {
  var attempted = 0
  var failed = 0
  private var reference: Array[Int] = null

  def attempt[A](call: => (A, CoreResult)): Option[(A, CoreResult)] = {
    attempted += 1
    val out =
      try Some(call)
      catch { case e: Exception => System.err.println(s"decompose failed: $e"); None }
    val ok = out.exists { case (_, res) =>
      if (reference == null && Gate.certify(g, h, res.core)) reference = res.core.clone()
      reference != null && java.util.Arrays.equals(reference, res.core)
    }
    if (!ok) {
      failed += 1
      if (out.isDefined) System.err.println("decompose result fails the certificate or differs from the first result")
    }
    out.filter(_ => ok)
  }
}

object Gate {
  /** Cheap one-sided certificate: every v has at least `core(v)`
    * h-neighbours inside {u : core(u) ≥ core(v)}, so `core` never exceeds
    * the true core index. One h-BFS per vertex, via the public [[HBfs]]. */
  def certify(g: AdjGraph, h: Int, core: Array[Int]): Boolean = {
    if (core.length != g.n || core.exists(_ < 0)) return false
    val order = (0 until g.n).sortBy(v => -core(v)).toArray
    val alive = new Array[Boolean](g.n)
    val bfs = new HBfs(g.n)
    val budget = Budget.unlimited()
    var i = 0
    while (i < order.length) {
      val k = core(order(i))
      var j = i
      while (j < order.length && core(order(j)) == k) { alive(order(j)) = true; j += 1 }
      while (i < j) {
        if (bfs.run(g, alive, order(i), h, budget) < k) return false
        i += 1
      }
    }
    true
  }
}
