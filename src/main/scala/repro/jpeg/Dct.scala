package repro.jpeg

/** Orthonormal 8×8 DCT-II and its inverse.
  *
  * `C(u,x) = c(u)/2 * cos((2x+1)uπ/16)` with `c(0)=1/√2`, so `F = C f Cᵀ`
  * and `f = Cᵀ F C`. The transform is exactly orthonormal, which keeps the
  * quantized-coefficient round trip (encode → decode at full fidelity)
  * deterministic to within rounding of the quantizer alone.
  *
  * Both directions are plain double-precision matrix products with a fixed
  * summation order, so encoded bytes and decoded pixels are reproducible
  * bit for bit. The inverse skips only terms whose coefficient is exactly
  * zero — adding ±0.0 changes no sum — which makes its cost follow the
  * coefficients received: an all-zero coefficient column is skipped in both
  * passes and a column is summed only up to its last non-zero row (libjpeg
  * `jidctint.c` takes the same shortcuts). The zero checks run per column,
  * so dense blocks pay 8 of them, not 64. A DC-only block yields
  * [[dcOnly]] everywhere; the decoder fills such blocks with it directly.
  * The `…Into` variants work on caller-owned buffers and allocate nothing.
  */
object Dct {
  final val N = 8

  /** `basis(u * N + x) = C(u,x)`. */
  private val basis: Array[Double] = Array.tabulate(N * N) { i =>
    val u = i / N; val x = i % N
    val c = if (u == 0) 1.0 / math.sqrt(2.0) else 1.0
    c / 2.0 * math.cos((2 * x + 1) * u * math.Pi / 16.0)
  }

  /** `basisT(x * N + u) = C(u,x)`. */
  private val basisT: Array[Double] = Array.tabulate(N * N)(i => basis((i % N) * N + i / N))

  /** `C(0,x)`, the same for every x. */
  private val b0 = basis(0)

  /** The value every pixel of a block takes when only its DC coefficient
    * `f00` is non-zero: what [[inverseInto]] computes for such a block.
    */
  def dcOnly(f00: Double): Double = (b0 * f00) * b0

  private def checkBlock(a: Array[Double]): Unit =
    require(a.length == 64, s"block must be 8x8, got ${a.length}")

  /** Forward DCT of one 8×8 block (row-major, length 64). */
  def forward(block: Array[Double]): Array[Double] = {
    val out = new Array[Double](64)
    forwardInto(block, new Array[Double](64), out)
    out
  }

  /** Forward DCT of `block` into `out`, using `tmp` as scratch. */
  def forwardInto(block: Array[Double], tmp: Array[Double], out: Array[Double]): Unit = {
    checkBlock(block); checkBlock(tmp); checkBlock(out)
    var u = 0
    while (u < N) { combine(0xff, basis, u * N, 1, block, tmp, u * N); u += 1 } // tmp = C f
    u = 0
    while (u < N) { combine(0xff, tmp, u * N, 1, basisT, out, u * N); u += 1 } // out = tmp Cᵀ
  }

  /** Inverse DCT of one 8×8 coefficient block (row-major, length 64). */
  def inverse(coef: Array[Double]): Array[Double] = {
    val out = new Array[Double](64)
    inverseInto(coef, new Array[Double](64), out)
    out
  }

  /** Inverse DCT of `coef` into `out`, using `tmp` as scratch.
    *
    * `tmp = Cᵀ F` column by column (stored transposed, each column summed
    * up to its last non-zero row), then `out = tmp C` row by row over the
    * non-zero columns only.
    */
  def inverseInto(coef: Array[Double], tmp: Array[Double], out: Array[Double]): Unit = {
    checkBlock(coef); checkBlock(tmp); checkBlock(out)
    var cols = 0 // bit v set when coefficient column v has a non-zero entry
    var v = 0
    while (v < N) {
      var hi = N - 1
      while (hi >= 0 && coef(hi * N + v) == 0.0) hi -= 1
      if (hi >= 0) {
        cols |= 1 << v
        combine((2 << hi) - 1, coef, v, N, basis, tmp, v * N) // tmp(v, x) = Σ_u F(u,v) C(u,x)
      }
      v += 1
    }
    var x = 0
    while (x < N) { combine(cols, tmp, x, N, basis, out, x * N); x += 1 } // out(x, y) = Σ_v tmp(v, x) C(v,y)
  }

  /** `dst(d + y) = Σ_j a(a0 + j * aStep) * m(j * N + y)` for y in 0 until 8,
    * over the j whose bit is set in `js`. Each of the eight sums starts at
    * 0.0 and adds its terms in increasing j; they advance together in
    * registers.
    */
  private def combine(js: Int, a: Array[Double], a0: Int, aStep: Int,
      m: Array[Double], dst: Array[Double], d: Int): Unit = {
    var s0, s1, s2, s3, s4, s5, s6, s7 = 0.0
    var rest = js
    while (rest != 0) {
      val j = Integer.numberOfTrailingZeros(rest)
      val c = a(a0 + j * aStep)
      val o = j * N
      s0 += c * m(o); s1 += c * m(o + 1); s2 += c * m(o + 2); s3 += c * m(o + 3)
      s4 += c * m(o + 4); s5 += c * m(o + 5); s6 += c * m(o + 6); s7 += c * m(o + 7)
      rest &= rest - 1
    }
    dst(d) = s0; dst(d + 1) = s1; dst(d + 2) = s2; dst(d + 3) = s3
    dst(d + 4) = s4; dst(d + 5) = s5; dst(d + 6) = s6; dst(d + 7) = s7
  }
}
