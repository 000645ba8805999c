package perfbench

import java.io.File
import repro.core._
import scala.collection.mutable.ArrayBuffer

/** The traced run: times each layer through its public functions and
  * decorates the engine of sequential decompose calls with spans.
  *
  * Layers, bottom up: graph build (`GraphGen`, `AdjGraph.fromEdges`), the
  * h-BFS kernel (`HBfs.run`), the bounds (`Bounds.lb1/lb2/upperBound`),
  * the engine (`HDegEngine` batch calls) and the decomposition driver
  * (`KHCore.decompose` minus its engine calls: inline BFS, bucketing).
  * Like the end-to-end figures, each is a median over the workload's
  * graphs of a per-graph figure.
  */
object Layers {
  private val Repeats = 5
  /** Minimum wall time of one h-BFS sweep sample (sweeps are repeated). */
  private val SweepSampleSeconds = 0.05
  private val algos = Seq("hlb" -> (Algo.HLB: Algo), "hlbub" -> (Algo.HLBUB(): Algo))

  def run(gates: Seq[Gate], seconds: Double, genTimes: Seq[Seq[Double]], spansFile: File): Seq[Metric] = {
    val rec = new SpanRecorder
    val seq = new SequentialEngine(gates.map(_.g.n).max)
    val par = new ThreadedEngine(gates.map(_.g.n).max, Runtime.getRuntime.availableProcessors())
    val traced = new TracingEngine(seq, rec)
    val none = Budget.unlimited()

    val fromEdges = gates.map { gate =>
      val (n, edges) = (gate.g.n, gate.g.edges)
      (0 until Repeats).map(_ => rec.seconds(rec.span("adjgraph.fromEdges", none)(AdjGraph.fromEdges(n, edges))._2))
    }
    val build = Seq(
      Metric.median("graphgen.gen_s", "s", genTimes),
      Metric.median("adjgraph.from_edges_s", "s", fromEdges))

    // Per graph, per repeat: the span id of each bound's call.
    val bounds = gates.map { gate =>
      (0 until Repeats).map { _ =>
        val (g, h, b) = (gate.g, gate.h, Budget.unlimited())
        val (l1, lb1) = rec.span("bounds.lb1", b)(Bounds.lb1(g, h, traced, b))
        val (_, lb2) = rec.span("bounds.lb2", b)(Bounds.lb2(g, h, l1, traced, b))
        val (_, ub) = rec.span("bounds.ub", b)(Bounds.upperBound(g, h, traced, b))
        Map("lb1" -> lb1, "lb2" -> lb2, "ub" -> ub)
      }
    }
    def perBound[A](bound: String, f: Int => A): Seq[Seq[A]] = bounds.map(_.map(ids => f(ids(bound))))
    val boundMetrics = Seq("lb1", "lb2", "ub").flatMap { b =>
      Seq(Metric.median(s"bounds.${b}_s", "s", perBound(b, rec.seconds)),
          Metric.exact(s"bounds.${b}_visits", perBound(b, rec.visits)))
    } :+ Metric.exact("bounds.ub_bfs", perBound("ub", rec.bfs))

    // Per algorithm and graph: untraced wall times with each engine, and
    // span ids of traced calls.
    val plain = algos.map(a => a._1 -> gates.map(_ => ArrayBuffer.empty[Double])).toMap
    val threaded = algos.map(a => a._1 -> gates.map(_ => ArrayBuffer.empty[Double])).toMap
    val calls = algos.map(a => a._1 -> gates.map(_ => ArrayBuffer.empty[Int])).toMap
    try Main.rounds(seconds) {
      for ((gate, i) <- gates.zipWithIndex; (a, algo) <- algos) {
        Main.timedDecompose(gate, algo, seq).foreach(plain(a)(i) += _.seconds)
        Main.timedDecompose(gate, algo, par).foreach(threaded(a)(i) += _.seconds)
        gate.attempt {
          val b = Budget.withTimeLimit(Main.CallLimitMs)
          val id = rec.begin(s"decompose.$a", b)
          val res = try KHCore.decompose(gate.g, gate.h, algo, Some(traced), b) finally rec.finish(id, b)
          (id, res)
        }.foreach(calls(a)(i) += _._1)
      }
    } finally par.shutdown()
    val decompose = algos.flatMap { case (a, _) =>
      Metric.median(s"engine.threaded_s.$a", "s", threaded(a).map(_.toSeq), "untraced, ThreadedEngine(nproc)") +:
        decomposeMetrics(rec, gates, a, calls(a).map(_.toSeq), plain(a).map(_.toSeq))
    }

    rec.write(spansFile)
    Report.line("spans", Seq("file" -> spansFile.getPath, "count" -> rec.count))
    build ++ sweep(gates) ++ boundMetrics ++ decompose
  }

  /** One `HBfs.run` per vertex with every vertex alive, repeated until a
    * sample lasts [[SweepSampleSeconds]]. Edge scans are not counted by the
    * kernel: they are computed as the summed degree of every vertex the BFS
    * expands (those at distance < h), which is exact with all vertices alive.
    */
  private def sweep(gates: Seq[Gate]): Seq[Metric] = {
    val bfs = new HBfs(gates.map(_.g.n).max)
    final case class Sweep(times: Seq[Double], visits: Long, scans: Long, ballFrac: Double)
    val sweeps = gates.map { gate =>
      val (g, h) = (gate.g, gate.h)
      val alive = Array.fill(g.n)(true)
      def once(): Double = {
        val budget = Budget.unlimited()
        val t0 = System.nanoTime()
        var v = 0
        while (v < g.n) { bfs.run(g, alive, v, h, budget); v += 1 }
        (System.nanoTime() - t0) / 1e9
      }
      var ball = 0L
      var scans = 0L
      for (v <- 0 until g.n) {
        val cnt = bfs.run(g, alive, v, h, Budget.unlimited())
        ball += cnt
        scans += g.degree(v)
        for (i <- 0 until cnt if bfs.nbrDist(i) < h) scans += g.degree(bfs.nbrs(i))
      }
      val reps = math.max(1, math.ceil(SweepSampleSeconds / once()).toInt)
      Sweep((0 until Repeats).map(_ => (0 until reps).map(_ => once()).sum / reps),
            ball + g.n, scans, ball.toDouble / g.n / g.n)
    }
    Seq(
      Metric.median("hbfs.sweep_s", "s", sweeps.map(_.times)),
      Metric.median("hbfs.visits_per_s", "1/s", sweeps.map(s => s.times.map(s.visits / _))),
      Metric.median("hbfs.scans_per_s", "1/s", sweeps.map(s => s.times.map(s.scans / _)),
                    "edge scans COMPUTED from degrees, not counted by the kernel"),
      Metric.median("hbfs.ball_frac", "ratio", sweeps.map(s => Seq(s.ballFrac)), "mean h-degree / n, exact"))
  }

  /** Totals of the engine spans under one traced decompose call. */
  private final case class Call(wall: Double, busy: Double, batches: Long, items: Long, small: Long,
                                hdegItems: Long, visits: Long, bfs: Long, engVisits: Long, engBfs: Long)

  /** Engine and driver figures of the traced calls (span ids per graph);
    * `plain` holds the untraced wall times per graph. */
  private def decomposeMetrics(rec: SpanRecorder, gates: Seq[Gate], a: String,
                               ids: Seq[Seq[Int]], plain: Seq[Seq[Double]]): Seq[Metric] = {
    val calls = ids.zip(gates).map { case (gIds, gate) => gIds.map { id =>
      val kids = rec.children(id)
      Call(rec.seconds(id), kids.map(rec.seconds).sum, kids.length,
           kids.map(rec.items(_).toLong).sum,
           kids.count(rec.items(_) < TracingEngine.ThreadedCutoff),
           kids.filter(k => rec.name(k) == "engine.batchHDeg" && rec.arg(k) == gate.h).map(rec.items(_).toLong).sum,
           rec.visits(id), rec.bfs(id), kids.map(rec.visits).sum, kids.map(rec.bfs).sum)
    }}
    def per[A](f: Call => A): Seq[Seq[A]] = calls.map(_.map(f))
    // Ratios of exact counts are the same in every call of a graph.
    def ratio(name: String, unit: String, num: Call => Double, den: Call => Double, what: String) =
      Metric.median(name, unit, calls.map(_.take(1).map(c => num(c) / math.max(den(c), 1.0))), s"$what, exact")
    val ns = gates.map(_.g.n.toDouble)
    Seq(
      Metric.exact(s"engine.batches.$a", per(_.batches)),
      ratio(s"engine.batch_mean.$a", "vertices", _.items.toDouble, _.batches.toDouble, "vertices per batch call"),
      ratio(s"engine.small_batch_frac.$a", "ratio", _.small.toDouble, _.batches.toDouble,
            s"share of batch calls under ${TracingEngine.ThreadedCutoff} vertices"),
      Metric.median(s"engine.hdeg_per_vertex.$a", "count",
                    calls.zip(ns).map { case (cs, n) => cs.take(1).map(_.hdegItems / n) },
                    "radius-h batchHDeg items / n, exact"),
      Metric.median(s"engine.busy_s.$a", "s", per(_.busy)),
      Metric.median(s"engine.share.$a", "ratio", per(c => c.busy / c.wall)),
      ratio(s"engine.visits_share.$a", "ratio", _.engVisits.toDouble, _.visits.toDouble,
            "engine visits / decompose visits"),
      Metric.median(s"driver.self_s.$a", "s", per(c => c.wall - c.busy)),
      Metric.exact(s"driver.inline_visits.$a", per(c => c.visits - c.engVisits)),
      Metric.exact(s"driver.inline_bfs.$a", per(c => c.bfs - c.engBfs)),
      Metric.median(s"trace.overhead_frac.$a", "ratio",
                    per(_.wall).zip(plain).map { case (t, p) => Seq(Report.median(t) / Report.median(p) - 1) },
                    "per graph: median traced / median untraced wall - 1"))
  }
}
