/**
 * @file
 * Minimal dense tensor types used throughout LongSight: a row-major
 * single-precision Matrix and free-function vector helpers. The library
 * deliberately avoids expression templates — attention kernels operate on
 * modest head dimensions (64/128) where clarity beats cleverness.
 */

#ifndef LONGSIGHT_TENSOR_TENSOR_HH
#define LONGSIGHT_TENSOR_TENSOR_HH

#include <cstddef>
#include <vector>

namespace longsight {

/**
 * A dense row-major float32 matrix.
 *
 * Row pointers stay valid until resize() or an appendRow() that grows
 * the backing store.
 */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct a rows x cols matrix, zero-initialized. */
    Matrix(size_t rows, size_t cols);

    /** Construct from existing data (size must equal rows*cols). */
    Matrix(size_t rows, size_t cols, std::vector<float> data);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

    /** Pointer to the start of row r. */
    float *row(size_t r) { return data_.data() + r * cols_; }
    const float *row(size_t r) const { return data_.data() + r * cols_; }

    /** Copy row r out as a vector. */
    std::vector<float> rowVec(size_t r) const;

    /** Overwrite row r from a span of cols() floats. */
    void setRow(size_t r, const float *src);

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Resize, discarding contents (zero-filled). */
    void resize(size_t rows, size_t cols);

    /**
     * Append one row (cols() floats). Amortized O(cols); invalidates
     * previously taken row pointers when the backing store grows.
     */
    void appendRow(const float *src);

    /** Reserve capacity for n rows without changing the shape. */
    void reserveRows(size_t n) { data_.reserve(n * cols_); }

    /**
     * Make room for one more row, growing a full store by a quarter
     * (at least 64 rows) instead of appendRow()'s doubling. Meant for
     * matrices grown a row at a time while many of them are resident,
     * where doubling leaves up to half of each one idle. Still
     * amortized O(cols) per row.
     */
    void reserveNextRow();

    /** Identity matrix of order n. */
    static Matrix identity(size_t n);

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace longsight

#endif // LONGSIGHT_TENSOR_TENSOR_HH
