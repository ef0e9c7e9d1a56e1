#include "widget.hh"

namespace fixture {

Widget::Widget(std::size_t n)
    : data_(n, 1.0f) // EXPECT(alloc)
{
}

float
Widget::sum() const
{
    float s = 0.0f;
    for (float x : data_)
        s += x;
    return s;
}

} // namespace fixture
