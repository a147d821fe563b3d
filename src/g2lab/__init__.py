"""Flat-torus G2 gauge theory: exterior algebra, G2-structures, torus
fibrations, self-dual lifting, Chern-Simons evaluation and the deformation
obstruction, with a CLI front end."""
