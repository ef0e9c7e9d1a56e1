#include <cstddef>

#include "util/annotations.hh"
#include "widget.hh"

float
hotStep(std::size_t n)
{
    LS_HOT_PATH();
    const fixture::Widget w(n);
    return w.sum();
}
