package repro.jpeg

/** MSB-first bit stream writer over a growable byte buffer. Each entropy-
  * coded scan is an independent, byte-aligned bit stream, which is what lets
  * the PCR layout concatenate scans from different images into scan groups.
  *
  * Bits collect in a 64-bit accumulator and move to the buffer four bytes
  * at a time, so a field of up to 32 bits costs one shift and one or.
  */
final class BitWriter(initialCapacity: Int = 256) {
  private var buf = new Array[Byte](math.max(16, initialCapacity))
  private var byteLen = 0
  private var acc = 0L // the low `nAcc` bits are pending, oldest first
  private var nAcc = 0 // < 32 between calls

  def writeBit(b: Int): Unit = writeBits(b, 1)

  /** Write the low `n` bits of `v`, MSB first. n may be 0 (no-op). */
  def writeBits(v: Int, n: Int): Unit = {
    require(n >= 0 && n <= 32, s"bad bit count $n")
    acc = (acc << n) | (v & ((1L << n) - 1))
    nAcc += n
    if (nAcc >= 32) {
      if (byteLen + 4 > buf.length) buf = java.util.Arrays.copyOf(buf, buf.length * 2)
      nAcc -= 32
      val word = (acc >>> nAcc).toInt
      buf(byteLen) = (word >>> 24).toByte
      buf(byteLen + 1) = (word >>> 16).toByte
      buf(byteLen + 2) = (word >>> 8).toByte
      buf(byteLen + 3) = word.toByte
      byteLen += 4
    }
  }

  def bitLength: Long = byteLen.toLong * 8 + nAcc

  /** Pad the final partial byte with 1s (like JPEG) and return the bytes. */
  def toBytes: Array[Byte] = {
    val out = java.util.Arrays.copyOf(buf, byteLen + (nAcc + 7) / 8)
    val pad = (8 - nAcc % 8) % 8
    val tail = (acc << pad) | ((1L << pad) - 1) // pending bits, 1-padded to whole bytes
    var i = byteLen
    var shift = nAcc + pad - 8
    while (i < out.length) { out(i) = (tail >>> shift).toByte; i += 1; shift -= 8 }
    out
  }
}

/** MSB-first bit reader over a byte array. Reading past the end yields 1s
  * (the padding value), mirroring how JPEG decoders treat the stream tail.
  *
  * Bytes are loaded into a 64-bit accumulator, so `readBits` takes a whole
  * field of up to 32 bits at once.
  */
final class BitReader(bytes: Array[Byte]) {
  private var next = 0  // index of the next byte to load
  private var acc = 0L  // the top `nAcc` bits are unread, MSB first
  private var nAcc = 0

  /** Top the accumulator up to at least 57 bits, with 1s past the end. */
  private def refill(): Unit =
    while (nAcc <= 56) {
      val b = if (next < bytes.length) bytes(next) & 0xff else 0xff
      next += 1
      acc |= b.toLong << (56 - nAcc)
      nAcc += 8
    }

  def readBit(): Int = readBits(1)

  /** Read an `n`-bit field (0 ≤ n ≤ 32), MSB first, into the low bits. */
  def readBits(n: Int): Int = {
    if (n < 0 || n > 32) throw new IllegalArgumentException(s"bad bit count $n")
    if (nAcc < n) refill()
    val v = ((acc >>> 1) >>> (63 - n)).toInt // the top n bits; 0 when n == 0
    acc <<= n
    nAcc -= n
    v
  }
}
