package repro.jpeg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import java.util.zip.CRC32

import repro.PropSupport
import repro.imaging.{DatasetSpec, PlanarImage, Rng, SyntheticImages}

class CodecSpec extends AnyFunSuite with PropSupport {

  private def randomImage(seed: Long, w: Int = 32, h: Int = 32): PlanarImage = {
    val rng = new Rng(seed)
    PlanarImage(w, h,
      Array.fill(w * h)((rng.nextDouble() * 256).toInt.min(255)),
      Array.fill(w * h / 4)((rng.nextDouble() * 256).toInt.min(255)),
      Array.fill(w * h / 4)((rng.nextDouble() * 256).toInt.min(255)))
  }

  private def syntheticImage(id: Long): PlanarImage =
    SyntheticImages.generate(SyntheticImages.imagenet, id)

  // ---------------------------------------------------------------- exact paths

  test("sequential encode/decode round-trips the quantized image exactly") {
    // The codec is lossy only through quantization: re-encoding a decoded
    // image at quality 100 with all-ones tables must be near-lossless, and
    // decode(encode(x)) must equal the quantization-only reconstruction.
    for (seed <- 1L to 3L) {
      val img = randomImage(seed)
      val ci = Codec.toCoefficients(img, 90)
      val direct = Codec.fromCoefficients(ci, 90, Array.fill(3, 64)(0))
      val decoded = Codec.decodeSequential(Codec.encodeSequential(img, 90), 90, 32, 32)
      assert(decoded.y.sameElements(direct.y))
      assert(decoded.cb.sameElements(direct.cb))
      assert(decoded.cr.sameElements(direct.cr))
    }
  }

  test("full progressive decode is bit-identical to sequential decode") {
    // The paper (§3): "Reading all scan groups … decodes to identical bytes
    // as the conventional JPEG format."
    for (seed <- 1L to 3L; quality <- Seq(50, 75, 92, 100)) {
      val img = randomImage(seed)
      val scans = Codec.encodeProgressive(img, quality)
      val prog = Codec.decodeProgressive(scans, quality, img.width, img.height)
      val seq = Codec.decodeSequential(Codec.encodeSequential(img, quality), quality,
        img.width, img.height)
      assert(prog.y.sameElements(seq.y), s"luma mismatch q=$quality seed=$seed")
      assert(prog.cb.sameElements(seq.cb), s"cb mismatch q=$quality seed=$seed")
      assert(prog.cr.sameElements(seq.cr), s"cr mismatch q=$quality seed=$seed")
    }
  }

  test("decoded coefficients equal encoded coefficients at full fidelity") {
    checkProp(Prop.forAll(Gen.choose(0L, 10000L)) { seed =>
      val img = randomImage(seed, 16, 16)
      val ci = Codec.toCoefficients(img, 85)
      val scans = Codec.encodeScript(ci, ScanScript.progressive10)
      val (ci2, depth) = Codec.decodeScans(scans, ScanScript.progressive10, 16, 16)
      depth.forall(_.forall(_ == 0)) &&
        (0 until 3).forall(c => ci.comps(c).sameElements(ci2.comps(c)))
    }, n = 25)
  }

  // ------------------------------------------------------------- golden bytes

  private def crc32(bytes: Array[Byte]): Long = { val c = new CRC32; c.update(bytes); c.getValue }

  private def planesCrc(img: PlanarImage): Long = {
    val c = new CRC32
    Seq(img.y, img.cb, img.cr).foreach(_.foreach(c.update))
    c.getValue
  }

  /** CRC32s of an image's framed progressive scans and sequential payload,
    * of its decode at scan groups 1 to 10, and of its sequential decode.
    */
  private def goldenCrcs(spec: DatasetSpec, id: Long, seed: Long): Seq[Long] = {
    val img = SyntheticImages.generate(spec, id, seed)
    val q = spec.quality
    val scans = Codec.encodeProgressive(img, q)
    val seq = Codec.encodeSequential(img, q)
    Seq(crc32(Codec.frame(scans)), crc32(seq)) ++
      (1 to 10).map(g => planesCrc(Codec.decodeProgressive(scans.take(g), q, img.width, img.height))) :+
      planesCrc(Codec.decodeSequential(seq, q, img.width, img.height))
  }

  test("encoded bytes and decoded pixels match the pinned reference CRCs") {
    // Pinned from the dense matrix-product DCT and bit-at-a-time bit IO that
    // the sparse decode path replaced: stored .pcr bytes and decoded pixels
    // at every scan group must not move.
    val golden = Seq(
      (SyntheticImages.imagenet, 3L, Seq(
        0xa9fe3296L, 0xd649f896L, 0x52ab560bL, 0xef895ac4L, 0xa803d3e5L, 0x64245866L, 0x75e02250L,
        0xf9968949L, 0xa83e6b4eL, 0xdeaffe6dL, 0x2be4fe5cL, 0x1f34b852L, 0x1f34b852L)),
      (SyntheticImages.ham10000, 5L, Seq(
        0x35e4a702L, 0x31ed1e0cL, 0x1faff16dL, 0xa9a4bc14L, 0x0fa67280L, 0xb6f3a07aL, 0x20034157L,
        0xd75670e7L, 0x330b9125L, 0x05d6896dL, 0xcd644e1eL, 0x5e2099eaL, 0x5e2099eaL)),
      (SyntheticImages.imagenet.copy(quality = 50), 9L, Seq(
        0xa024bdacL, 0xbfd00d81L, 0xd1fb5766L, 0x5b4e2411L, 0x4fa7b61cL, 0x82a6ea18L, 0x536bfa4cL,
        0x7e611ad8L, 0x1540bc92L, 0x7acb5011L, 0x3bdb2058L, 0x2fb4bd39L, 0x2fb4bd39L)))
    for ((spec, id, expected) <- golden) {
      val got = goldenCrcs(spec, id, 42L)
      assert(got == expected, s"${spec.name} q${spec.quality} image $id: " +
        got.map(v => f"0x$v%08x").mkString(", "))
    }
  }

  // --------------------------------------------------------------- allocation

  test("fromCoefficients allocates only its output planes on a scan-1 image") {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean match {
      case m: com.sun.management.ThreadMXBean if m.isThreadAllocatedMemorySupported => m
      case _ => cancel("this JVM cannot measure per-thread allocation")
    }
    if (!mx.isThreadAllocatedMemoryEnabled) mx.setThreadAllocatedMemoryEnabled(true)
    val img = syntheticImage(21)
    val scans = Codec.encodeProgressive(img, 92)
    val (ci, depth) = Codec.decodeScans(scans.take(1), ScanScript.progressive10, 64, 64)
    (0 until 2000).foreach(_ => Codec.fromCoefficients(ci, 92, depth)) // JIT warm-up
    val allocated = (0 until 5).map { _ =>
      val a0 = mx.getCurrentThreadAllocatedBytes
      Codec.fromCoefficients(ci, 92, depth)
      mx.getCurrentThreadAllocatedBytes - a0
    }.min
    val planes = (64 * 64 + 2 * 32 * 32) * 4L
    assert(allocated <= planes + 8192, s"allocated $allocated B for $planes B of planes")
  }

  // ----------------------------------------------------------- prefix behaviour

  test("every scan prefix decodes without error and improves or holds PSNR") {
    val img = syntheticImage(7)
    val scans = Codec.encodeProgressive(img, 92)
    val ref = Codec.decodeProgressive(scans, 92, img.width, img.height)
    var lastPsnr = 0.0
    for (g <- 1 to 10) {
      val dec = Codec.decodeProgressive(scans.take(g), 92, img.width, img.height)
      val p = dec.psnrY(ref)
      assert(p >= lastPsnr - 0.75, s"PSNR regressed at scan $g: $p vs $lastPsnr")
      lastPsnr = math.max(lastPsnr, p)
    }
    assert(lastPsnr.isInfinity, "scan 10 should reproduce the full-fidelity image")
  }

  test("scan 1 (DC only) reconstructs a blocky but unbiased approximation") {
    val img = syntheticImage(3)
    val scans = Codec.encodeProgressive(img, 92)
    val dc = Codec.decodeProgressive(scans.take(1), 92, img.width, img.height)
    val meanOrig = img.y.map(_.toDouble).sum / img.y.length
    val meanDc = dc.y.map(_.toDouble).sum / dc.y.length
    assert(math.abs(meanOrig - meanDc) < 8.0, s"mean drifted: $meanOrig vs $meanDc")
    assert(dc.psnrY(img) > 10.0)
  }

  test("later scans strictly add information on natural-ish images") {
    val img = syntheticImage(11)
    val scans = Codec.encodeProgressive(img, 92)
    val p1 = Codec.decodeProgressive(scans.take(1), 92, img.width, img.height).psnrY(img)
    val p5 = Codec.decodeProgressive(scans.take(5), 92, img.width, img.height).psnrY(img)
    val p10 = Codec.decodeProgressive(scans, 92, img.width, img.height).psnrY(img)
    assert(p1 < p5 && p5 < p10, s"psnr not increasing: $p1, $p5, $p10")
  }

  // ------------------------------------------------------------------ size laws

  test("progressive scan streams are non-empty and sizes are plausible") {
    val img = syntheticImage(5)
    val scans = Codec.encodeProgressive(img, 92)
    assert(scans.length == 10)
    scans.foreach(s => assert(s.nonEmpty))
    val total = scans.map(_.length).sum
    assert(total > 200 && total < 64 * 64 * 3, s"implausible total $total")
  }

  test("higher quality yields larger progressive payloads") {
    val img = syntheticImage(13)
    val sizes = Seq(50, 75, 95).map(q => Codec.encodeProgressive(img, q).map(_.length).sum)
    assert(sizes(0) < sizes(1) && sizes(1) < sizes(2), s"sizes not monotone: $sizes")
  }

  test("progressive total size is within 2× of the sequential payload") {
    // Real progressive JPEG is usually slightly smaller; our fixed-length
    // symbol coder is close enough that the layouts stay comparable.
    for (seed <- 1L to 3L) {
      val img = syntheticImage(seed)
      val prog = Codec.encodeProgressive(img, 92).map(_.length).sum
      val seq = Codec.encodeSequential(img, 92).length
      val ratio = prog.toDouble / seq
      assert(ratio > 0.5 && ratio < 2.0, s"ratio $ratio out of bounds")
    }
  }

  test("frame/unframe round-trips") {
    val chunksGen = Gen.choose(0, 64).flatMap(n =>
      Gen.listOfN(n, Gen.listOf(Gen.choose(-128, 127).map(_.toByte))))
    checkProp(Prop.forAll(chunksGen) { chunks =>
      val arrays = chunks.map(_.toArray)
      val back = Codec.unframe(Codec.frame(arrays))
      back.length == arrays.length &&
        back.zip(arrays).forall { case (a, b) => a.sameElements(b) }
    }, n = 50)
  }

  test("flat images compress to almost nothing") {
    val flat = PlanarImage.flat(32, 32)
    val scans = Codec.encodeProgressive(flat, 92)
    assert(scans.map(_.length).sum < 200)
    val dec = Codec.decodeProgressive(scans, 92, 32, 32)
    assert(dec.y.forall(_ == 128))
  }

  test("decode rejects a run that leaves the scan's spectral band") {
    // Scan 1: six DC blocks of a 16×16 image, each a 4-bit category 0.
    // Scan 2 (band 1..5): its first symbol is run 15, size 1, so k = 16.
    val script = Seq(ScanSpec(Seq(0, 1, 2), 0, 0, 0, 0), ScanSpec(Seq(0), 1, 5, 0, 0))
    val scans = Seq(Array[Byte](0, 0, 0), Array(0xf1.toByte, 0xff.toByte))
    assertThrows[IllegalArgumentException](Codec.decodeScans(scans, script, 16, 16))
  }

  test("decode rejects a refinement position that leaves the scan's spectral band") {
    // Scan 2 refines band 1..5 of the four Y blocks: one new coefficient,
    // then its 6-bit position 0 (the DC slot) and a sign bit.
    val script = Seq(ScanSpec(Seq(0, 1, 2), 0, 0, 0, 0), ScanSpec(Seq(0), 1, 5, 1, 0))
    val scans = Seq(Array[Byte](0, 0, 0), Array(0x04.toByte, 0x0f.toByte))
    assertThrows[IllegalArgumentException](Codec.decodeScans(scans, script, 16, 16))
  }

  test("decode rejects more scan payloads than the script has") {
    val img = randomImage(1, 16, 16)
    val scans = Codec.encodeProgressive(img, 80)
    assertThrows[IllegalArgumentException](
      Codec.decodeProgressive(scans :+ Array[Byte](0), 80, 16, 16))
  }
}
