#include "tensor/tensor.hh"

#include <cstring>

#include "util/logging.hh"

namespace longsight {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

Matrix::Matrix(size_t rows, size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data))
{
    LS_ASSERT(data_.size() == rows_ * cols_,
              "matrix data size ", data_.size(), " != ", rows_ * cols_);
}

std::vector<float>
Matrix::rowVec(size_t r) const
{
    LS_ASSERT(r < rows_, "row ", r, " out of range ", rows_);
    return std::vector<float>(row(r), row(r) + cols_);
}

void
Matrix::setRow(size_t r, const float *src)
{
    LS_ASSERT(r < rows_, "row ", r, " out of range ", rows_);
    std::memcpy(row(r), src, cols_ * sizeof(float));
}

void
Matrix::resize(size_t rows, size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    // LS_LINT_ALLOW(alloc): capacity persists across same-shape resizes
    data_.assign(rows * cols, 0.0f);
}

void
Matrix::appendRow(const float *src)
{
    LS_ASSERT(cols_ > 0, "appendRow on a matrix with no column count");
    // LS_LINT_ALLOW(alloc): amortized append; geometric growth
    data_.insert(data_.end(), src, src + cols_);
    ++rows_;
}

void
Matrix::reserveNextRow()
{
    LS_ASSERT(cols_ > 0, "reserveNextRow on a matrix with no column count");
    if ((rows_ + 1) * cols_ <= data_.capacity())
        return;
    // LS_LINT_ALLOW(alloc): amortized growth; a quarter per step
    data_.reserve((rows_ + rows_ / 4 + 64) * cols_);
}

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        m(i, i) = 1.0f;
    return m;
}

} // namespace longsight
