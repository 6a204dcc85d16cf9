"""Speech-driven 3D lip animation: audio features in, vertex displacements out."""
