// Dense row-major matrix/vector types used throughout the library.
//
// Two instantiations matter: Matrix<double> (RMatrix) and
// Matrix<std::complex<double>> (CMatrix). The MUSIC pipeline works on
// 30x30-ish matrices, so a straightforward dense implementation with
// cache-friendly row-major storage is the right tool; no external linear
// algebra dependency is used anywhere in the repository.
//
// Two calling conventions share one set of kernels:
//  * Owning Matrix<T> values — the ergonomic API for tests, examples,
//    and cold paths.
//  * Non-owning MatrixView<T>/ConstMatrixView<T> — stride-aware windows
//    over memory someone else owns (a Matrix, or a Workspace arena
//    checkout via workspace_matrix). The hot path threads views through
//    the pipeline so a steady-state packet allocates nothing.
// The value operators delegate to the view kernels (matmul_into,
// gram_into, ...), so both conventions execute the exact same arithmetic
// in the exact same order: results are byte-identical by construction.
#pragma once

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/workspace.hpp"

namespace spotfi {

using cplx = std::complex<double>;

/// A complex array as its interleaved doubles: element k's real part at
/// [2k], its imaginary part at [2k + 1] (the array layout the standard
/// guarantees for std::complex). The per-packet kernels multiply through
/// these views, each product written as the builtin's fast path
/// (ac - bd, ad + bc; conj as a sign flip) in the same operand and
/// summation order, so their bits are std::complex's for finite operands.
/// std::complex's operator* also tests for a NaN result and branches to
/// __muldc3, and that branch keeps GCC from vectorizing the loop.
[[nodiscard]] inline double* re_im(cplx* z) {
  return reinterpret_cast<double*>(z);
}
[[nodiscard]] inline const double* re_im(const cplx* z) {
  return reinterpret_cast<const double*>(z);
}

namespace detail {
template <typename T>
struct is_complex : std::false_type {};
template <typename U>
struct is_complex<std::complex<U>> : std::true_type {};
}  // namespace detail

template <typename T>
class Matrix;

/// Mutable non-owning window: `rows x cols` elements over row-major
/// storage with a row stride (stride == cols when contiguous). Cheap to
/// copy (pointer + three sizes); never owns or frees memory. The
/// underlying storage must outlive the view — arena-backed views die
/// with their Workspace::Frame.
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, std::size_t rows, std::size_t cols, std::size_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    SPOTFI_ASSERT(stride >= cols, "row stride below row width");
  }
  MatrixView(T* data, std::size_t rows, std::size_t cols)
      : MatrixView(data, rows, cols, cols) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }
  [[nodiscard]] T* data() const { return data_; }

  T& operator()(std::size_t i, std::size_t j) const {
    SPOTFI_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * stride_ + j];
  }

  [[nodiscard]] T* row_ptr(std::size_t i) const {
    SPOTFI_ASSERT(i < rows_, "row index out of range");
    return data_ + i * stride_;
  }
  [[nodiscard]] std::span<T> row(std::size_t i) const {
    return {row_ptr(i), cols_};
  }

  /// A rows x cols sub-window anchored at (r0, c0); shares the stride.
  [[nodiscard]] MatrixView block(std::size_t r0, std::size_t c0,
                                 std::size_t rows, std::size_t cols) const {
    SPOTFI_ASSERT(r0 + rows <= rows_ && c0 + cols <= cols_,
                  "block out of range");
    return {data_ + r0 * stride_ + c0, rows, cols, stride_};
  }

  void fill(const T& v) const {
    for (std::size_t i = 0; i < rows_; ++i) {
      T* r = row_ptr(i);
      for (std::size_t j = 0; j < cols_; ++j) r[j] = v;
    }
  }

 private:
  T* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
};

/// Read-only counterpart of MatrixView. Implicitly constructible from a
/// MatrixView or a (const) Matrix, so kernels written against const
/// views accept every storage flavor.
template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, std::size_t rows, std::size_t cols,
                  std::size_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    SPOTFI_ASSERT(stride >= cols, "row stride below row width");
  }
  ConstMatrixView(const T* data, std::size_t rows, std::size_t cols)
      : ConstMatrixView(data, rows, cols, cols) {}
  ConstMatrixView(MatrixView<T> m)  // NOLINT(google-explicit-constructor)
      : ConstMatrixView(m.data(), m.rows(), m.cols(), m.stride()) {}
  ConstMatrixView(const Matrix<T>& m);  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }
  [[nodiscard]] const T* data() const { return data_; }

  const T& operator()(std::size_t i, std::size_t j) const {
    SPOTFI_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * stride_ + j];
  }

  [[nodiscard]] const T* row_ptr(std::size_t i) const {
    SPOTFI_ASSERT(i < rows_, "row index out of range");
    return data_ + i * stride_;
  }
  [[nodiscard]] std::span<const T> row(std::size_t i) const {
    return {row_ptr(i), cols_};
  }

  [[nodiscard]] ConstMatrixView block(std::size_t r0, std::size_t c0,
                                      std::size_t rows,
                                      std::size_t cols) const {
    SPOTFI_ASSERT(r0 + rows <= rows_ && c0 + cols <= cols_,
                  "block out of range");
    return {data_ + r0 * stride_ + c0, rows, cols, stride_};
  }

 private:
  const T* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
};

/// c += a * b. Row-major ikj ordering (B rows and the C row stream
/// through cache), k unrolled two-wide so each pass over the C row does
/// two multiply-adds per load/store — raw row pointers throughout, no
/// bounds-checked element accessors on the hot path. `c` must arrive
/// zero-initialized for a plain product (Matrix construction and
/// Workspace checkouts both guarantee that).
template <typename T>
void matmul_into(ConstMatrixView<T> a, ConstMatrixView<T> b,
                 MatrixView<T> c) {
  SPOTFI_EXPECTS(a.cols() == b.rows(), "shape mismatch in matrix product");
  SPOTFI_EXPECTS(c.rows() == a.rows() && c.cols() == b.cols(),
                 "output shape mismatch in matrix product");
  const std::size_t kk = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const T* arow = a.row_ptr(i);
    T* crow = c.row_ptr(i);
    std::size_t k = 0;
    for (; k + 1 < kk; k += 2) {
      const T a0 = arow[k];
      const T a1 = arow[k + 1];
      const T* b0 = b.row_ptr(k);
      const T* b1 = b.row_ptr(k + 1);
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j];
      }
    }
    if (k < kk) {
      const T a0 = arow[k];
      const T* b0 = b.row_ptr(k);
      for (std::size_t j = 0; j < n; ++j) crow[j] += a0 * b0[j];
    }
  }
}

/// g = a * a^H — the (unnormalized) covariance MUSIC eigendecomposes.
/// Lower triangle only, mirrored; the row-dot runs two independent
/// accumulators (even and odd k) so the (serial) multiply-add dependency
/// chain halves. Complex rows are summed as split real arithmetic
/// (re_im). Overwrites g completely.
template <typename T>
void gram_into(ConstMatrixView<T> a, MatrixView<T> g) {
  SPOTFI_EXPECTS(g.rows() == a.rows() && g.cols() == a.rows(),
                 "output shape mismatch in gram");
  const std::size_t cols = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const T* ri = a.row_ptr(i);
    T* grow = g.row_ptr(i);
    for (std::size_t j = 0; j <= i; ++j) {
      const T* rj = a.row_ptr(j);
      if constexpr (detail::is_complex<T>::value) {
        // acc += x conj(y): (xr yr + xi yi, xi yr - xr yi).
        const double* x = re_im(ri);
        const double* y = re_im(rj);
        double re0 = 0.0;
        double im0 = 0.0;
        double re1 = 0.0;
        double im1 = 0.0;
        std::size_t k = 0;
        for (; k + 1 < cols; k += 2) {
          const std::size_t e = 2 * k;
          re0 += x[e] * y[e] + x[e + 1] * y[e + 1];
          im0 += x[e + 1] * y[e] - x[e] * y[e + 1];
          re1 += x[e + 2] * y[e + 2] + x[e + 3] * y[e + 3];
          im1 += x[e + 3] * y[e + 2] - x[e + 2] * y[e + 3];
        }
        if (k < cols) {
          const std::size_t e = 2 * k;
          re0 += x[e] * y[e] + x[e + 1] * y[e + 1];
          im0 += x[e + 1] * y[e] - x[e] * y[e + 1];
        }
        const T acc(re0 + re1, im0 + im1);
        grow[j] = acc;
        g(j, i) = std::conj(acc);
      } else {
        T acc0{};
        T acc1{};
        std::size_t k = 0;
        for (; k + 1 < cols; k += 2) {
          acc0 += ri[k] * rj[k];
          acc1 += ri[k + 1] * rj[k + 1];
        }
        if (k < cols) acc0 += ri[k] * rj[k];
        const T acc = acc0 + acc1;
        grow[j] = acc;
        g(j, i) = acc;
      }
    }
  }
}

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  Matrix(std::size_t rows, std::size_t cols, const T& fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Row-major initializer: Matrix<double>{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      SPOTFI_EXPECTS(r.size() == cols_, "ragged initializer list");
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  [[nodiscard]] static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Non-owning windows over this matrix's storage. The matrix must
  /// outlive (and not reallocate under) the view.
  [[nodiscard]] MatrixView<T> view() {
    return {data_.data(), rows_, cols_, cols_};
  }
  [[nodiscard]] ConstMatrixView<T> view() const {
    return {data_.data(), rows_, cols_, cols_};
  }
  [[nodiscard]] ConstMatrixView<T> cview() const { return view(); }

  T& operator()(std::size_t i, std::size_t j) {
    SPOTFI_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    SPOTFI_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }

  [[nodiscard]] std::span<T> row(std::size_t i) {
    SPOTFI_ASSERT(i < rows_, "row index out of range");
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t i) const {
    SPOTFI_ASSERT(i < rows_, "row index out of range");
    return {data_.data() + i * cols_, cols_};
  }

  [[nodiscard]] std::vector<T> col(std::size_t j) const {
    SPOTFI_ASSERT(j < cols_, "column index out of range");
    std::vector<T> c(rows_);
    for (std::size_t i = 0; i < rows_; ++i) c[i] = (*this)(i, j);
    return c;
  }

  void set_col(std::size_t j, std::span<const T> values) {
    SPOTFI_EXPECTS(j < cols_ && values.size() == rows_,
                   "set_col size mismatch");
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = values[i];
  }

  [[nodiscard]] std::span<T> flat() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> flat() const {
    return {data_.data(), data_.size()};
  }

  Matrix& operator+=(const Matrix& rhs) {
    SPOTFI_EXPECTS(same_shape(rhs), "shape mismatch in +=");
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += rhs.data_[k];
    return *this;
  }
  Matrix& operator-=(const Matrix& rhs) {
    SPOTFI_EXPECTS(same_shape(rhs), "shape mismatch in -=");
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
    return *this;
  }
  Matrix& operator*=(const T& s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  [[nodiscard]] friend Matrix operator+(Matrix a, const Matrix& b) {
    a += b;
    return a;
  }
  [[nodiscard]] friend Matrix operator-(Matrix a, const Matrix& b) {
    a -= b;
    return a;
  }
  [[nodiscard]] friend Matrix operator*(Matrix a, const T& s) {
    a *= s;
    return a;
  }
  [[nodiscard]] friend Matrix operator*(const T& s, Matrix a) {
    a *= s;
    return a;
  }

  /// Matrix product; thin wrapper over the view kernel matmul_into.
  [[nodiscard]] friend Matrix operator*(const Matrix& a, const Matrix& b) {
    SPOTFI_EXPECTS(a.cols_ == b.rows_, "shape mismatch in matrix product");
    Matrix c(a.rows_, b.cols_);
    matmul_into<T>(a.view(), b.view(), c.view());
    return c;
  }

  [[nodiscard]] Matrix transpose() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
  }

  /// Conjugate transpose (equals transpose for real T).
  [[nodiscard]] Matrix adjoint() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) {
        if constexpr (detail::is_complex<T>::value) {
          t(j, i) = std::conj((*this)(i, j));
        } else {
          t(j, i) = (*this)(i, j);
        }
      }
    }
    return t;
  }

  /// A * A^H; thin wrapper over the view kernel gram_into.
  [[nodiscard]] Matrix gram() const {
    Matrix g(rows_, rows_);
    gram_into<T>(view(), g.view());
    return g;
  }

  [[nodiscard]] double frobenius_norm() const {
    double s = 0.0;
    for (const auto& v : data_) s += std::norm(v);
    return std::sqrt(s);
  }

  [[nodiscard]] double max_abs() const {
    double m = 0.0;
    for (const auto& v : data_) m = std::max(m, std::abs(v));
    return m;
  }

  [[nodiscard]] bool same_shape(const Matrix& rhs) const {
    return rows_ == rhs.rows_ && cols_ == rhs.cols_;
  }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

template <typename T>
ConstMatrixView<T>::ConstMatrixView(const Matrix<T>& m)
    : ConstMatrixView(m.view()) {}

using RMatrix = Matrix<double>;
using CMatrix = Matrix<cplx>;
using RVector = std::vector<double>;
using CVector = std::vector<cplx>;

using RMatrixView = MatrixView<double>;
using CMatrixView = MatrixView<cplx>;
using ConstRMatrixView = ConstMatrixView<double>;
using ConstCMatrixView = ConstMatrixView<cplx>;

/// Checks a zero-filled rows x cols view out of a workspace arena. The
/// view lives until the enclosing Workspace::Frame closes.
template <typename T>
[[nodiscard]] MatrixView<T> workspace_matrix(Workspace& ws, std::size_t rows,
                                             std::size_t cols) {
  return {ws.take<T>(rows * cols).data(), rows, cols, cols};
}

/// Copies src into an arena checkout (contiguous), e.g. to mutate a
/// caller's matrix without touching it or the heap.
template <typename T>
[[nodiscard]] MatrixView<T> workspace_clone(Workspace& ws,
                                            ConstMatrixView<T> src) {
  MatrixView<T> dst = workspace_matrix<T>(ws, src.rows(), src.cols());
  for (std::size_t i = 0; i < src.rows(); ++i) {
    const T* s = src.row_ptr(i);
    T* d = dst.row_ptr(i);
    for (std::size_t j = 0; j < src.cols(); ++j) d[j] = s[j];
  }
  return dst;
}

/// y = A x for a complex matrix and vector.
[[nodiscard]] CVector matvec(const CMatrix& a, std::span<const cplx> x);
[[nodiscard]] RVector matvec(const RMatrix& a, std::span<const double> x);

/// y = A x into a caller-provided output (no allocation).
void matvec_into(ConstCMatrixView a, std::span<const cplx> x,
                 std::span<cplx> y);
void matvec_into(ConstRMatrixView a, std::span<const double> x,
                 std::span<double> y);

/// Hermitian inner product <x, y> = sum_i conj(x_i) y_i.
[[nodiscard]] cplx dot(std::span<const cplx> x, std::span<const cplx> y);
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

[[nodiscard]] double norm2(std::span<const cplx> x);
[[nodiscard]] double norm2(std::span<const double> x);

}  // namespace spotfi
