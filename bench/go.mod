module soxq/bench

go 1.24

require soxq v0.0.0

replace soxq => ../
