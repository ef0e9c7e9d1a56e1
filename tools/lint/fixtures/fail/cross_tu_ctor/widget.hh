// Two-TU fixture: the hot root in hot.cc constructs a Widget whose
// constructor is defined out of line in widget.cc. The caller's TU
// only declares the complete-object constructor (C1); the body is the
// base-object symbol (C2) in the other TU, so the walk must follow the
// alias across TUs to see the allocation inside it.
#ifndef FIXTURE_WIDGET_HH
#define FIXTURE_WIDGET_HH

#include <cstddef>
#include <vector>

namespace fixture {

class Widget
{
  public:
    explicit Widget(std::size_t n);

    float sum() const;

  private:
    std::vector<float> data_;
};

} // namespace fixture

#endif // FIXTURE_WIDGET_HH
