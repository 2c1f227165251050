"""CleanML core: experiment grid, relations R1/R2/R3, queries Q1-Q5."""
