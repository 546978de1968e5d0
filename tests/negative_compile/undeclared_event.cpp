// Must NOT compile: an event kind is an obs::EventKind declared in
// src/obs/events.def, never a string, so an undocumented kind cannot be
// emitted.
#include "obs/events.hpp"

void negative_compile_undeclared_event() {
  optalloc::obs::Event("rogue_undocumented_event").num("x", 1);
}
