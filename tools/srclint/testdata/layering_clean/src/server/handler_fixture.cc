// Fixture: the daemon framing the shared verbs.
#include "src/commands/commands.h"

int FrameAVerb() { return 0; }
