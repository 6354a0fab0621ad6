package repro.jpeg

import repro.imaging.PlanarImage

/** Quantized DCT coefficients for a whole image.
  *
  * `comps(c)(b * 64 + k)` is zigzag coefficient k of block b of component c
  * — component 0 is luma, 1/2 are the half-resolution chroma planes. Blocks
  * tile row-major. Storing zigzag order directly makes spectral-band
  * addressing in scans a range loop, and one flat array per component keeps
  * a decode at three allocations however many blocks the image has.
  */
final case class CoefImage(width: Int, height: Int, comps: Array[Array[Int]]) {
  def nComponents: Int = comps.length
}

/** JPEG-like codec: 8×8 DCT + standard quantization + progressive scans.
  *
  * Differences from real JPEG are confined to the entropy layer (fixed
  * 4+4-bit (run,size) symbols instead of Huffman tables, and per-scan
  * byte-aligned streams instead of one marker-delimited stream). Everything
  * the paper's measurements depend on — spectral selection, successive
  * approximation, quality-scaled quantization, chroma subsampling, and
  * bit-exact equivalence of full-progressive and sequential decoding — is
  * implemented faithfully.
  */
object Codec {

  // ---------------------------------------------------------------- helpers

  /** JPEG point transform for AC coefficients: sign-magnitude right shift. */
  private def pt(v: Int, al: Int): Int = if (v >= 0) v >> al else -((-v) >> al)

  /** Bit category of a value: smallest s with |v| < 2^s (0 for v == 0). */
  private def category(v: Int): Int = 32 - Integer.numberOfLeadingZeros(math.abs(v))

  /** JPEG signed value coding: positives as-is, negatives one's-complement. */
  private def writeSigned(bw: BitWriter, v: Int, s: Int): Unit =
    if (v >= 0) bw.writeBits(v, s) else bw.writeBits(v + (1 << s) - 1, s)

  private def readSigned(br: BitReader, s: Int): Int = {
    if (s == 0) 0
    else {
      val raw = br.readBits(s)
      if (raw < (1 << (s - 1))) raw - (1 << s) + 1 else raw
    }
  }

  // ------------------------------------------------------- pixels <-> coefs

  /** Forward path: level shift, per-block DCT, quality-scaled quantization. */
  def toCoefficients(img: PlanarImage, quality: Int): CoefImage = {
    val block = new Array[Double](64)
    val tmp   = new Array[Double](64)
    val f     = new Array[Double](64)
    def plane(px: Array[Int], w: Int, h: Int, qzz: Array[Int]): Array[Int] = {
      val bw = w / 8
      val coefs = new Array[Int](bw * (h / 8) * 64)
      var b = 0
      while (b < coefs.length / 64) {
        val origin = (b / bw) * 8 * w + (b % bw) * 8
        var i = 0
        while (i < 64) { block(i) = px(origin + (i >> 3) * w + (i & 7)) - 128.0; i += 1 }
        Dct.forwardInto(block, tmp, f)
        var k = 0
        while (k < 64) {
          coefs(b * 64 + k) = math.round(f(ZigZag.order(k)) / qzz(k)).toInt
          k += 1
        }
        b += 1
      }
      coefs
    }
    val qLuma   = ZigZag.permute(Quantization.luma(quality))
    val qChroma = ZigZag.permute(Quantization.chroma(quality))
    CoefImage(img.width, img.height, Array(
      plane(img.y, img.width, img.height, qLuma),
      plane(img.cb, img.chromaWidth, img.chromaHeight, qChroma),
      plane(img.cr, img.chromaWidth, img.chromaHeight, qChroma)))
  }

  /** Inverse path from (possibly partially received) coefficients.
    *
    * `depth(c)(k)` is the bit depth at which coefficient k of component c
    * was last received (`-1` = never → treated as 0). AC coefficients
    * received at depth > 0 are reconstructed at the magnitude midpoint,
    * matching how JPEG decoders render truncated progressive streams.
    * Only received coefficients are dequantized, and a block with no
    * non-zero AC coefficient is filled with its DC level without an IDCT.
    */
  def fromCoefficients(ci: CoefImage, quality: Int, depth: Array[Array[Int]]): PlanarImage = {
    val coef = new Array[Double](64) // row-major, as the IDCT takes it
    val tmp  = new Array[Double](64)
    val sp   = new Array[Double](64)
    val ks   = new Array[Int](64)    // the received zigzag indices of a plane
    def plane(coefs: Array[Int], w: Int, h: Int, qzz: Array[Int], d: Array[Int]): Array[Int] = {
      var n = 0
      var k = 0
      while (k < 64) { if (d(k) >= 0) { ks(n) = k; n += 1 }; k += 1 }
      java.util.Arrays.fill(coef, 0.0)
      val bw = w / 8
      val px = new Array[Int](w * h)
      var b = 0
      while (b < coefs.length / 64) {
        var ac = false
        var j = 0
        while (j < n) {
          val k  = ks(j)
          val al = d(k)
          val v  = coefs(b * 64 + k)
          val full: Int =
            if (al == 0) v
            else if (k == 0) v << al // DC: two's-complement shift semantics
            else if (v == 0) 0
            else {
              val mag = (math.abs(v) << al) + (1 << (al - 1))
              if (v > 0) mag else -mag
            }
          coef(ZigZag.order(k)) = full.toDouble * qzz(k)
          if (k > 0 && full != 0) ac = true
          j += 1
        }
        val origin = (b / bw) * 8 * w + (b % bw) * 8
        if (ac) {
          Dct.inverseInto(coef, tmp, sp)
          var i = 0
          while (i < 64) {
            px(origin + (i >> 3) * w + (i & 7)) = PlanarImage.clamp255(sp(i) + 128.0)
            i += 1
          }
        } else {
          val level = PlanarImage.clamp255(Dct.dcOnly(coef(0)) + 128.0)
          var i = 0
          while (i < 64) { px(origin + (i >> 3) * w + (i & 7)) = level; i += 1 }
        }
        b += 1
      }
      px
    }
    val qLuma   = ZigZag.permute(Quantization.luma(quality))
    val qChroma = ZigZag.permute(Quantization.chroma(quality))
    PlanarImage(ci.width, ci.height,
      plane(ci.comps(0), ci.width, ci.height, qLuma, depth(0)),
      plane(ci.comps(1), ci.width / 2, ci.height / 2, qChroma, depth(1)),
      plane(ci.comps(2), ci.width / 2, ci.height / 2, qChroma, depth(2)))
  }

  // ------------------------------------------------------------- scan coder

  /** Entropy-encode one scan of `ci` into its own byte-aligned stream. */
  def encodeScan(ci: CoefImage, spec: ScanSpec): Array[Byte] = {
    val bw = new BitWriter()
    for (c <- spec.components) {
      val coefs = ci.comps(c)
      val nb = coefs.length / 64
      if (spec.coversDc) {
        if (spec.isRefinement) encodeDcRefinement(bw, coefs, nb, spec.al)
        else encodeDcFirst(bw, coefs, nb, spec.al)
      }
      val acStart = math.max(1, spec.ss)
      if (spec.se >= acStart) {
        if (spec.isRefinement) encodeAcRefinement(bw, coefs, nb, acStart, spec.se, spec.ah, spec.al)
        else encodeAcFirst(bw, coefs, nb, acStart, spec.se, spec.al)
      }
    }
    bw.toBytes
  }

  /** DC first pass: diff-coded arithmetic-shifted values. */
  private def encodeDcFirst(bw: BitWriter, coefs: Array[Int], nb: Int, al: Int): Unit = {
    var prev = 0
    var b = 0
    while (b < nb) {
      val v = coefs(b * 64) >> al
      val diff = v - prev
      prev = v
      val s = category(diff)
      bw.writeBits(s, 4)
      writeSigned(bw, diff, s)
      b += 1
    }
  }

  private def encodeDcRefinement(bw: BitWriter, coefs: Array[Int], nb: Int, al: Int): Unit = {
    var b = 0
    while (b < nb) {
      bw.writeBit((coefs(b * 64) >> al) & 1)
      b += 1
    }
  }

  /** AC first pass: (run, size) symbols + signed value bits, EOB/ZRL. */
  private def encodeAcFirst(bw: BitWriter, coefs: Array[Int], nb: Int, ss: Int, se: Int, al: Int): Unit = {
    var b = 0
    while (b < nb) {
      val o = b * 64
      var run = 0
      var k = ss
      while (k <= se) {
        val v = pt(coefs(o + k), al)
        if (v == 0) run += 1
        else {
          while (run > 15) { bw.writeBits(0xf0, 8); run -= 16 } // ZRL
          val s = category(v)
          bw.writeBits((run << 4) | s, 8)
          writeSigned(bw, v, s)
          run = 0
        }
        k += 1
      }
      if (run > 0) bw.writeBits(0, 8) // EOB
      b += 1
    }
  }

  /** AC refinement: one correction bit per already-significant coefficient,
    * then an explicit list of newly-significant positions (6-bit count,
    * 6-bit position, sign bit). All-zero bands cost 6 bits per block — like
    * JPEG's EOB runs, this keeps refinement scans proportional to content,
    * not band width.
    */
  private def encodeAcRefinement(bw: BitWriter, coefs: Array[Int], nb: Int, ss: Int, se: Int,
      ah: Int, al: Int): Unit = {
    var b = 0
    while (b < nb) {
      val o = b * 64
      var k = ss
      var nNew = 0
      while (k <= se) {
        val prevMag = math.abs(coefs(o + k)) >> ah
        val newMag  = math.abs(coefs(o + k)) >> al
        if (prevMag != 0) bw.writeBit(newMag & 1)
        else if (newMag != 0) nNew += 1
        k += 1
      }
      bw.writeBits(nNew, 6)
      k = ss
      while (k <= se) {
        val prevMag = math.abs(coefs(o + k)) >> ah
        val newMag  = math.abs(coefs(o + k)) >> al
        if (prevMag == 0 && newMag != 0) {
          bw.writeBits((k << 1) | (if (coefs(o + k) > 0) 1 else 0), 7) // position, sign
        }
        k += 1
      }
      b += 1
    }
  }

  /** Encode all scans of a script; element i is the stream of scan i+1. */
  def encodeScript(ci: CoefImage, script: Seq[ScanSpec]): Vector[Array[Byte]] = {
    ScanScript.finalDepths(script, ci.nComponents) // validates ordering
    script.iterator.map(encodeScan(ci, _)).toVector
  }

  /** Decode the first `scans.length` scans of `script` back into received
    * coefficient values plus the per-coefficient bit depth reached.
    */
  def decodeScans(
      scans: Seq[Array[Byte]],
      script: Seq[ScanSpec],
      width: Int,
      height: Int): (CoefImage, Array[Array[Int]]) = {
    require(scans.length <= script.length,
      s"${scans.length} scan payloads but script has ${script.length}")
    val nc = 3
    def nBlocks(c: Int): Int =
      if (c == 0) (width / 8) * (height / 8) else (width / 16) * (height / 16)
    val comps = Array.tabulate(nc)(c => new Array[Int](nBlocks(c) * 64))
    val depth = Array.fill(nc, 64)(-1)

    for ((bytes, spec) <- scans.zip(script)) {
      val br = new BitReader(bytes)
      for (c <- spec.components) {
        val coefs = comps(c)
        val nb = nBlocks(c)
        if (spec.coversDc) {
          if (spec.isRefinement) decodeDcRefinement(br, coefs, nb)
          else decodeDcFirst(br, coefs, nb)
        }
        val acStart = math.max(1, spec.ss)
        if (spec.se >= acStart) {
          if (spec.isRefinement) decodeAcRefinement(br, coefs, nb, acStart, spec.se)
          else decodeAcFirst(br, coefs, nb, acStart, spec.se)
        }
        var k = spec.ss
        while (k <= spec.se) { depth(c)(k) = spec.al; k += 1 }
      }
    }
    (CoefImage(width, height, comps), depth)
  }

  private def decodeDcFirst(br: BitReader, coefs: Array[Int], nb: Int): Unit = {
    var prev = 0
    var b = 0
    while (b < nb) {
      prev += readSigned(br, br.readBits(4))
      coefs(b * 64) = prev
      b += 1
    }
  }

  private def decodeDcRefinement(br: BitReader, coefs: Array[Int], nb: Int): Unit = {
    var b = 0
    while (b < nb) {
      coefs(b * 64) = (coefs(b * 64) << 1) | br.readBit()
      b += 1
    }
  }

  private def decodeAcFirst(br: BitReader, coefs: Array[Int], nb: Int, ss: Int, se: Int): Unit = {
    var b = 0
    while (b < nb) {
      val o = b * 64
      var k = ss
      while (k <= se) {
        val sym = br.readBits(8) // (run, size)
        if (sym == 0) k = se + 1         // EOB
        else if (sym == 0xf0) k += 16    // ZRL
        else {
          k += sym >>> 4
          require(k <= se, s"corrupt scan: coefficient $k outside band $ss..$se")
          coefs(o + k) = readSigned(br, sym & 15)
          k += 1
        }
      }
      b += 1
    }
  }

  private def decodeAcRefinement(br: BitReader, coefs: Array[Int], nb: Int, ss: Int, se: Int): Unit = {
    var b = 0
    while (b < nb) {
      val o = b * 64
      var k = ss
      while (k <= se) {
        val v = coefs(o + k)
        if (v != 0) {
          val mag = (math.abs(v) << 1) | br.readBit()
          coefs(o + k) = if (v > 0) mag else -mag
        }
        k += 1
      }
      var nNew = br.readBits(6)
      while (nNew > 0) {
        val posSign = br.readBits(7) // 6-bit position, sign bit
        val k = posSign >>> 1
        require(k >= ss && k <= se, s"corrupt scan: coefficient $k outside band $ss..$se")
        coefs(o + k) = if ((posSign & 1) == 1) 1 else -1
        nNew -= 1
      }
      b += 1
    }
  }

  // ---------------------------------------------------------- public facade

  /** Progressive encode: one byte stream per scan of `script`. */
  def encodeProgressive(
      img: PlanarImage,
      quality: Int,
      script: Seq[ScanSpec] = ScanScript.progressive10): Vector[Array[Byte]] =
    encodeScript(toCoefficients(img, quality), script)

  /** Decode the first `scans.length` scans — the PCR "read up to scan group
    * g" path. Fewer scans → lower-fidelity reconstruction of all blocks.
    */
  def decodeProgressive(
      scans: Seq[Array[Byte]],
      quality: Int,
      width: Int,
      height: Int,
      script: Seq[ScanSpec] = ScanScript.progressive10): PlanarImage = {
    val (ci, depth) = decodeScans(scans, script, width, height)
    fromCoefficients(ci, quality, depth)
  }

  /** Baseline sequential encode: a single framed byte payload. */
  def encodeSequential(img: PlanarImage, quality: Int): Array[Byte] = {
    val scans = encodeScript(toCoefficients(img, quality), ScanScript.sequential(3))
    frame(scans)
  }

  /** Decode a baseline sequential payload produced by [[encodeSequential]]. */
  def decodeSequential(bytes: Array[Byte], quality: Int, width: Int, height: Int): PlanarImage = {
    val scans = unframe(bytes)
    decodeProgressive(scans, quality, width, height, ScanScript.sequential(3))
  }

  /** Pack per-scan streams into one payload: [n][len_i][bytes_i]…. */
  def frame(scans: Seq[Array[Byte]]): Array[Byte] = {
    val total = 4 + scans.map(s => 4 + s.length).sum
    val bb = java.nio.ByteBuffer.allocate(total)
    bb.putInt(scans.length)
    scans.foreach { s => bb.putInt(s.length); bb.put(s) }
    bb.array()
  }

  /** Inverse of [[frame]]. */
  def unframe(bytes: Array[Byte]): Vector[Array[Byte]] = {
    val bb = java.nio.ByteBuffer.wrap(bytes)
    val n = bb.getInt
    require(n >= 0 && n <= 64, s"corrupt frame header: $n scans")
    Vector.fill(n) {
      val len = bb.getInt
      val a = new Array[Byte](len)
      bb.get(a)
      a
    }
  }
}
