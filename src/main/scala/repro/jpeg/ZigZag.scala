package repro.jpeg

/** The JPEG zigzag traversal of an 8×8 block: index k in 0..63 → row-major
  * position. Scans address coefficients by zigzag index (spectral bands),
  * so both codec modes and the progressive scan script share this order.
  */
object ZigZag {

  /** `order(k)` = row-major index of the k-th zigzag coefficient. */
  val order: Array[Int] = {
    val out = new Array[Int](64)
    var r = 0; var c = 0
    var k = 0
    while (k < 64) {
      out(k) = r * 8 + c
      if ((r + c) % 2 == 0) { // moving up-right
        if (c == 7) r += 1 else if (r == 0) c += 1 else { r -= 1; c += 1 }
      } else { // moving down-left
        if (r == 7) c += 1 else if (c == 0) r += 1 else { r += 1; c -= 1 }
      }
      k += 1
    }
    out
  }

  /** A row-major 8×8 table (e.g. a quantization table) in zigzag order. */
  def permute(rowMajor: Array[Int]): Array[Int] = {
    val out = new Array[Int](64)
    var k = 0
    while (k < 64) { out(k) = rowMajor(order(k)); k += 1 }
    out
  }

  /** Inverse map: row-major index → zigzag index. */
  val inverse: Array[Int] = {
    val out = new Array[Int](64)
    var k = 0
    while (k < 64) { out(order(k)) = k; k += 1 }
    out
  }
}
