package pcrbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths, StandardOpenOption}

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.{PcrDecoder, RecordManifest}
import repro.jpeg.ScanScript
import repro.train.Trainer

/** One benchmark run of one workload in this JVM.
  *
  * {{{
  * pcrbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *               --threads <n> --work <dir> --out <dir> [--source-id <id>]
  *               [--tiny] [--corrupt]
  * }}}
  *
  * Set-up (SparkSession, then a first encode of the dataset) is followed by
  * untimed warm-up operations and then `--seconds` of timed operations. An
  * operation is one training epoch or one dataset encode. The last line of
  * standard output is the result object; a fuller record of the run is
  * written under `--out`.
  */
object Main {
  /** Untimed warm-up before timing: long enough to get past the JIT's
    * compilation phases on the decode and encode loops.
    */
  val WarmupSeconds = 10.0
  val MinWarmupOps = 3
  val MinTimedOps = 5

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
      threads: Int, work: String, out: String, sourceId: String, tiny: Boolean, corrupt: Boolean)

  private def parse(args: Array[String]): Opts = {
    val flags = Set("--tiny", "--corrupt")
    def go(rest: List[String], kv: Map[String, String]): Map[String, String] = rest match {
      case Nil                         => kv
      case f :: t if flags(f)          => go(t, kv + (f -> "1"))
      case k :: v :: t if k.startsWith("--") => go(t, kv + (k -> v))
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }
    val kv = go(args.toList, Map.empty)
    def req(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    Opts(req("--workload"), req("--seed").toLong, req("--seconds").toDouble,
      req("--trace") == "1", req("--threads").toInt, req("--work"), req("--out"),
      kv.getOrElse("--source-id", "unknown"), kv.contains("--tiny"), kv.contains("--corrupt"))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val wl = Workload.byName(o.workload, o.tiny)
    Files.createDirectories(Paths.get(o.work))
    Files.createDirectories(Paths.get(o.out))
    val spark = SparkSession.builder
      .master(s"local[${o.threads}]")
      .appName("pcr-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(o.work, "spark-local").toString)
      .config("spark.sql.shuffle.partitions", wl.numRecords.toString)
      .config("spark.default.parallelism", o.threads.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val result = new Run(spark, wl, o).apply()
      println(Json.render(result))
    } finally spark.stop()
  }

  private[pcrbench] def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
}

/** One timed or untimed operation and what its checks found. */
final case class OpRecord(phase: String, seconds: Double, ok: Boolean, detail: String,
    traced: Boolean, gcMs: Long)

final class Run(spark: SparkSession, wl: Workload, o: Main.Opts) {
  import Main._

  private val sessionReadyMs = System.currentTimeMillis()
  private val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
  private val tracer = new Tracer(o.trace)
  private val params = Pipeline.params(wl, o.seed)
  private val ops = Vector.newBuilder[OpRecord]
  private var firstEpoch: Option[(Array[Double], Double)] = None
  private var encodeCount = 0
  private var manifests: Seq[RecordManifest] = Nil
  private def dataDir = Paths.get(manifests.head.path).getParent.toString

  private def span[T](on: Boolean, name: String)(body: => T): T =
    if (on) tracer.span(name)(body) else body

  private def freshDir(): String = {
    val d = Paths.get(o.work, f"data-$encodeCount%03d").toString
    encodeCount += 1
    Pipeline.deleteTree(d)
    d
  }

  /** Run one operation; returns its result or error, seconds and GC ms. */
  private def timedOp[T](traced: Boolean, name: String)(body: => T): (Either[String, T], Double, Long) = {
    val gc0 = gcMillis
    val t0 = System.nanoTime()
    val res = try Right(span(traced, name)(body)) catch { case NonFatal(e) => Left(e.toString) }
    (res, (System.nanoTime() - t0) / 1e9, gcMillis - gc0)
  }

  /** Encode into a fresh directory and drop the previous one. */
  private def encodeOp(phase: String, traced: Boolean): OpRecord = {
    val dir = freshDir()
    val old = manifests
    timedOp(traced, "op.encode")(Pipeline.encode(spark, wl, o.seed, dir)) match {
      case (Right(m), s, gc) =>
        manifests = m
        if (old.nonEmpty) Pipeline.deleteTree(Paths.get(old.head.path).getParent.toString)
        val c = Checks.headersMatch(wl, m)
        OpRecord(phase, s, c.ok, c.detail, traced, gc)
      case (Left(err), s, gc) => OpRecord(phase, s, ok = false, err, traced, gc)
    }
  }

  /** One epoch; the loss must be finite, cover every image and equal the
    * first epoch's loss to 1e-9 relative (parameters are frozen).
    */
  private def epochOp(phase: String, traced: Boolean): OpRecord =
    timedOp(traced, "op.epoch") {
      val ds = span(traced, "train.featuresAt")(Pipeline.features(spark, wl, dataDir))
      span(traced, "train.gradient")(Trainer.gradient(ds, params))
    } match {
      case (Right((g, loss, n)), s, gc) =>
        val finite = !loss.isNaN && !loss.isInfinite
        if (firstEpoch.isEmpty && n == wl.numImages && finite) firstEpoch = Some((g, loss))
        val base = firstEpoch.map(_._2).getOrElse(Double.NaN)
        val ok = n == wl.numImages && finite && Checks.relDiff(loss, base) <= 1e-9
        OpRecord(phase, s, ok, s"rows=$n loss=$loss", traced, gc)
      case (Left(err), s, gc) => OpRecord(phase, s, ok = false, err, traced, gc)
    }

  private def op(phase: String, traced: Boolean): OpRecord = {
    val r = if (wl.train) epochOp(phase, traced) else encodeOp(phase, traced)
    ops += r
    r
  }

  /** Run operations until `seconds` have passed and at least `minOps` ran. */
  private def loop(phase: String, seconds: Double, minOps: Int, traced: Int => Boolean): Seq[OpRecord] = {
    val t0 = System.nanoTime()
    val out = Vector.newBuilder[OpRecord]
    var i = 0
    while (i < minOps || (System.nanoTime() - t0) / 1e9 < seconds) {
      val on = traced(i)
      out += op(phase, on)
      i += 1
    }
    out.result()
  }

  /** Flip one byte of record 0's first scan-group payload, as on-disk
    * corruption would; used by the self-test.
    */
  private def corruptOneByte(): Unit = {
    val m = manifests.head
    val at = m.groupEndOffsets(0) + 4L * m.nImages
    val ch = java.nio.channels.FileChannel.open(Paths.get(m.path), StandardOpenOption.READ, StandardOpenOption.WRITE)
    try {
      val b = java.nio.ByteBuffer.allocate(1)
      ch.read(b, at); b.flip()
      val flipped = java.nio.ByteBuffer.wrap(Array((b.get() ^ 0x5a).toByte))
      ch.write(flipped, at)
    } finally ch.close()
  }

  private def imagesPerSecond(xs: Seq[OpRecord]): Double = {
    val good = xs.filter(_.ok)
    Stats.median((if (good.nonEmpty) good else xs).map(wl.numImages / _.seconds))
  }

  def apply(): Seq[(String, Any)] = {
    // Set-up: the SparkSession (already up) and the first, cold encode of
    // the dataset. Both are once-per-JVM costs, so a run measures them once.
    val setupOp = encodeOp("setup", traced = false)
    ops += setupOp
    require(setupOp.ok, s"set-up encode failed: ${setupOp.detail}")
    sessionS = (sessionReadyMs - jvmStartMs) / 1e3
    val setupS = sessionS + setupOp.seconds
    // Train workloads read the corrupted record in every epoch; the encode
    // workload rewrites its files each operation, so its last output is
    // corrupted after the timed phase instead.
    if (o.corrupt && wl.train) corruptOneByte()

    val warm = loop("warmup", if (o.tiny) 0.0 else WarmupSeconds, MinWarmupOps, _ => false)
    // A traced run interleaves traced and untraced operations, so the two
    // medians give the tracing overhead under the same conditions.
    // ABBA order, so a trend across the timed phase favours neither side.
    val timed = loop("timed", o.seconds, MinTimedOps, i => o.trace && (i % 4 == 0 || i % 4 == 3))
    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)

    if (o.corrupt && !wl.train) corruptOneByte()
    val paths = manifests.map(_.path)
    val checks = runChecks(paths)

    val n = wl.numImages.toDouble
    val storedPerImage = manifests.map(_.totalBytes).sum / n
    val endToEnd = Seq(
      ("setup_s", setupS, "s"),
      ("images_per_s", imagesPerSecond(timed.filterNot(_.traced)), "images/s"),
      ("bytes_read_per_image", bytesReadPerImage, "B"),
      ("bytes_stored_per_image", storedPerImage, "B"),
      ("psnr_db", psnrDb, "dB"),
      ("heap_live_mb", heapMb, "MiB"))
    val perLayer = if (o.trace) layerMetrics(timed, paths) else Nil
    val reported = if (o.trace) perLayer else endToEnd

    // A metric a failed check could not measure is reported as 0, and the
    // run as incorrect.
    val unmeasured = reported.exists(m => m._2.isNaN || m._2.isInfinite)
    val allOps = ops.result()
    val failedOps = allOps.count(!_.ok) + checks.count(!_.ok) + (if (unmeasured) 1 else 0)
    val attempted = allOps.size + checks.size
    val summary = Seq(
      "correct" -> (failedOps == 0),
      "attempted" -> attempted,
      "failed" -> failedOps,
      "metrics" -> reported.map { case (k, v, u) =>
        k -> Seq("value" -> (if (v.isNaN || v.isInfinite) 0.0 else v), "unit" -> u) })

    writeRecord(summary, endToEnd, perLayer, warm, timed, checks)
    checks.filterNot(_.ok).foreach(c => println(s"CHECK FAILED ${c.name}: ${c.detail}"))
    allOps.filterNot(_.ok).take(5).foreach(r => println(s"OP FAILED ${r.phase}: ${r.detail}"))
    summary
  }

  // ------------------------------------------------------------ checks

  private var bytesReadPerImage = Double.NaN
  private var psnrDb = Double.NaN

  private def runChecks(paths: Seq[String]): Seq[Check] = {
    val checks = Vector.newBuilder[Check]
    def guard(name: String)(body: => Check): Unit =
      checks += (try body catch { case NonFatal(e) => Check(name, ok = false, e.toString) })

    var refs: Seq[RecordRef] = Nil
    guard("records-equal-reencode") {
      refs = Checks.reference(spark, wl, o.seed, paths, params)
      val bad = refs.filter(r => r.error.nonEmpty || !r.bytesEqual)
      Check("records-equal-reencode", bad.isEmpty && refs.size == wl.numRecords,
        if (bad.isEmpty) s"${refs.size} records byte-equal"
        else bad.map(r => if (r.error.nonEmpty) r.error else paths(r.index)).mkString("; "))
    }
    val good = refs.filter(_.error.isEmpty)
    val mse = good.map(_.mseSum).sum / math.max(1, good.map(_.images.size).sum)
    psnrDb = 10 * math.log10(255.0 * 255.0 / mse)

    guard("dsv2-equals-readRecord") {
      val rows = Checks.dsv2Rows(spark, wl, dataDir)
      val expected = good.flatMap(_.images).map { case (id, l, c) => id -> (l, c) }.toMap
      val g = math.min(wl.scanGroup, ScanScript.progressive10.length)
      val bad = rows.filterNot { case (id, l, sg, _, c) => sg == g && expected.get(id).contains((l, c)) }
      val fromHeaders = paths.map(PcrDecoder.readHeader(_).prefixLength(g)).sum.toDouble / wl.numImages
      val fromManifests = manifests.map(_.prefixBytes(g)).sum.toDouble / wl.numImages
      bytesReadPerImage = rows.map(_._4).sum / rows.length
      checks += Check("bytes-read-equals-prefix-lengths",
        Checks.relDiff(bytesReadPerImage, fromHeaders) <= 1e-12 && fromHeaders == fromManifests,
        s"bytes_read mean=$bytesReadPerImage headers=$fromHeaders manifests=$fromManifests")
      Check("dsv2-equals-readRecord", bad.isEmpty && rows.length == wl.numImages &&
        rows.map(_._1).toSet == expected.keySet,
        s"${rows.length} rows, ${bad.length} differ from PcrDecoder.readRecord")
    }
    if (wl.train) guard("epoch-equals-reference") {
      val lossRef = good.map(_.lossSum).sum / wl.numImages
      val gradRef = new Array[Double](params.theta.length)
      good.foreach(r => r.grad.indices.foreach(i => gradRef(i) += r.grad(i) / wl.numImages))
      val scale = 1e-12 + gradRef.map(math.abs).max
      val ok = firstEpoch.exists { case (g, loss) =>
        Checks.relDiff(loss, lossRef) <= 1e-9 &&
          g.indices.forall(i => math.abs(g(i) - gradRef(i)) <= 1e-9 * scale)
      }
      Check("epoch-equals-reference", ok && good.size == wl.numRecords,
        s"epoch loss=${firstEpoch.map(_._2)} reference=$lossRef")
    }
    if (wl.fullFidelity) guard("progressive-equals-sequential") {
      Checks.progressiveEqualsSequential(wl, o.seed, paths)
    }
    checks.result()
  }

  // ------------------------------------------------------------ trace

  private var traceNotes: Seq[(String, Any)] = Nil
  private var sessionS = Double.NaN

  private def layerMetrics(timed: Seq[OpRecord], paths: Seq[String]): Seq[(String, Double, String)] = {
    val n = wl.numImages.toDouble
    val passes = (0 until 3).map(_ => Layers.readPass(tracer, wl, paths, params))
    def usPerImage(f: Layers.ReadPass => Long) = Stats.median(passes.map(p => f(p) / 1e3 / p.images))
    val read = usPerImage(_.readNs)
    val entropy = usPerImage(_.entropyNs)
    val idct = usPerImage(_.idctNs)
    val features = usPerImage(_.featuresNs)
    val accumulate = usPerImage(_.accumulateNs)
    val dsv2 = usPerImage(_.dsv2Ns)
    val gradS = Layers.gradientSeconds(spark, tracer, wl, dataDir, params)
    val enc = Layers.encodePass(tracer, wl, o.seed)
    val p0 = passes.head

    // Layer busy time per operation in thread-seconds, against the
    // operation's capacity of wall time × task threads. The gradient's busy
    // time is its per-row work; the rest of a gradient pass is Spark's.
    val busy: Seq[(String, Double)] =
      if (wl.train) Seq("core.read" -> read, "jpeg.entropy" -> entropy, "jpeg.idct" -> idct,
        "core.dsv2" -> dsv2, "train.features" -> features, "train.accumulate" -> accumulate)
        .map { case (k, us) => k -> n * us / 1e6 }
      else Seq("imaging.generate" -> enc.generateNs, "jpeg.fdct" -> enc.fdctNs,
        "jpeg.entropy_encode" -> enc.entropyEncodeNs, "core.serialize" -> enc.serializeNs)
        .map { case (k, ns) => k -> ns / 1e9 }
    val busyS = busy.map(_._2).sum
    val traced = timed.filter(_.traced)
    val residuals = traced.map(r => 1.0 - busyS / (r.seconds * o.threads))
    val untracedRate = imagesPerSecond(timed.filterNot(_.traced))
    val tracedRate = imagesPerSecond(traced)
    traceNotes = Seq(
      "layer_busy_thread_s_per_op" -> busy,
      "op_capacity_s" -> traced.map(_.seconds * o.threads),
      "residual_share_per_op" -> residuals,
      "accounted" -> residuals.forall(r => r >= 0 && r < 1),
      "images_per_s_traced" -> tracedRate,
      "images_per_s_untraced" -> untracedRate,
      "tracing_overhead_share" -> (1.0 - tracedRate / untracedRate))
    println(f"trace: layer busy ${busyS}%.3f thread-s per op; residual share per op " +
      residuals.map(r => f"$r%.3f").mkString("[", ", ", "]") +
      f"; images/s traced $tracedRate%.1f untraced $untracedRate%.1f " +
      f"(tracing overhead ${100 * (1 - tracedRate / untracedRate)}%.2f%%)")

    Seq(
      ("core.read.us_per_image", read, "us"),
      ("core.read.records", p0.records.toDouble, "count"),
      ("core.read.bytes_per_image", p0.bytes / n, "B"),
      ("jpeg.entropy.us_per_image", entropy, "us"),
      ("jpeg.entropy.scans_per_image", p0.scans / n, "count"),
      ("jpeg.idct.us_per_image", idct, "us"),
      ("jpeg.idct.alloc_bytes_per_image", Stats.median(passes.map(_.idctAllocBytes / n)), "B"),
      ("core.dsv2.us_per_image", dsv2, "us"),
      ("train.features.us_per_image", features, "us"),
      ("train.gradient.s_per_epoch", gradS, "s"),
      ("spark.residual.share", Stats.median(residuals), "share"),
      ("jvm.gc_ms_per_op", timed.map(_.gcMs).sum.toDouble / timed.size, "ms"),
      ("imaging.generate.us_per_image", enc.generateNs / 1e3 / n, "us"),
      ("jpeg.fdct.us_per_image", enc.fdctNs / 1e3 / n, "us"),
      ("jpeg.entropy_encode.us_per_image", enc.entropyEncodeNs / 1e3 / n, "us"),
      ("core.serialize.us_per_image", enc.serializeNs / 1e3 / n, "us"))
  }

  // ------------------------------------------------------------ output

  private def writeRecord(summary: Seq[(String, Any)], endToEnd: Seq[(String, Double, String)],
      perLayer: Seq[(String, Double, String)], warm: Seq[OpRecord], timed: Seq[OpRecord],
      checks: Seq[Check]): Unit = {
    val tag = s"${wl.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    val rt = ManagementFactory.getRuntimeMXBean
    def metric(m: (String, Double, String)) =
      m._1 -> Seq("value" -> (if (m._2.isNaN || m._2.isInfinite) None else Some(m._2)), "unit" -> m._3, "kind" -> "measured")
    val record = Seq(
      "summary" -> summary,
      "end_to_end" -> endToEnd.map(metric),
      "per_layer" -> perLayer.map(metric),
      "trace" -> traceNotes,
      "environment" -> Seq(
        "nproc" -> Runtime.getRuntime.availableProcessors,
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
        "jvm_flags" -> rt.getInputArguments.asScala.toSeq,
        "spark" -> spark.version,
        "source" -> o.sourceId),
      "settings" -> Seq(
        "workload" -> wl.name, "seed" -> o.seed, "trace" -> o.trace,
        "task_threads" -> o.threads,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "jvm_start_to_session_s" -> sessionS,
        "warmup_seconds" -> WarmupSeconds, "warmup_ops" -> warm.size,
        "timed_seconds" -> o.seconds, "timed_ops" -> timed.size),
      "dataset" -> Seq(
        "name" -> wl.spec.name, "images" -> wl.numImages, "records" -> wl.numRecords,
        "images_per_record" -> wl.spec.imagesPerRecord, "width" -> wl.spec.width,
        "height" -> wl.spec.height, "quality" -> wl.spec.quality, "scan_group" -> wl.scanGroup),
      "checks" -> checks.map(c => Seq("name" -> c.name, "ok" -> c.ok, "detail" -> c.detail)),
      "ops" -> ops.result().map(r => Seq("phase" -> r.phase, "seconds" -> r.seconds,
        "ok" -> r.ok, "traced" -> r.traced, "gc_ms" -> r.gcMs)))
    Files.write(Paths.get(o.out, s"result-$tag.json"),
      Json.render(record).getBytes(StandardCharsets.UTF_8))
    if (o.trace) {
      tracer.write(Paths.get(o.out, s"spans-$tag.jsonl").toString)
      val table = tracer.table
      val lines = f"${"span"}%-28s ${"count"}%8s ${"total_ms"}%12s ${"self_ms"}%12s" +:
        table.map { case (name, c, tot, self) => f"$name%-28s $c%8d $tot%12.2f $self%12.2f" }
      Files.write(Paths.get(o.out, s"layers-$tag.txt"),
        lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
      lines.foreach(println)
    }
  }
}
