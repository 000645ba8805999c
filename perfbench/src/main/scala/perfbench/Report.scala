package perfbench

/** One reported figure. `how` says how it was obtained (a median over
  * `n` samples, an exact count, ...); `integral` values print as integers. */
final case class Metric(name: String, unit: String, value: Double, how: String,
                        integral: Boolean = false)

/** Every figure describes one decompose call (or one layer call) on a
  * typical graph of the workload: the median over the workload's graphs
  * of each graph's own figure. The graph count is odd, so a median count
  * is the count of one graph. */
object Metric {
  /** Median over graphs of each graph's median sample. */
  def median(name: String, unit: String, perGraph: Seq[Seq[Double]], note: String = ""): Metric = {
    val sizes = perGraph.map(_.size)
    Metric(name, unit, Report.median(perGraph.filter(_.nonEmpty).map(Report.median)),
           s"median over ${perGraph.size} graphs of ${sizes.min}-${sizes.max} samples each" +
             (if (note.isEmpty) "" else s"; $note"))
  }

  /** A count that every sample of a graph should repeat exactly; flags
    * graphs whose samples differ. */
  def exact(name: String, perGraph: Seq[Seq[Long]], unit: String = "count"): Metric = {
    val varying = perGraph.count(_.distinct.size > 1)
    val how = if (varying == 0) s"exact, median over ${perGraph.size} graphs"
              else s"NOT REPEATED on $varying of ${perGraph.size} graphs"
    Metric(name, unit, Report.median(perGraph.filter(_.nonEmpty).map(_.head.toDouble)), how, integral = true)
  }
}

object Report {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  private def num(m: Metric): String =
    if (m.integral) m.value.toLong.toString else java.lang.Double.toString(m.value)

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def json(v: Any): String = v match {
    case s: String => str(s)
    case b: Boolean => b.toString
    case x: Double => java.lang.Double.toString(x)
    case x => x.toString
  }

  /** A human-readable context line, e.g. `# env {"nproc": 4, ...}`. */
  def line(tag: String, kvs: Seq[(String, Any)]): Unit =
    println(s"# $tag " + kvs.map { case (k, v) => s"${str(k)}: ${json(v)}" }.mkString("{", ", ", "}"))

  def metric(m: Metric): Unit =
    println(f"metric ${m.name}%-30s ${num(m)}%s ${m.unit} (${m.how})")

  /** The result line: `correct`, `attempted`, `failed` and `metrics`. */
  def result(attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s"${str(m.name)}: {\"value\": ${num(m)}, \"unit\": ${str(m.unit)}}")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": ${ms.mkString("{", ", ", "}")}}"""
  }
}
